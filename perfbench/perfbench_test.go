package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"parconn"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {200, 95}, {100, 90}, {20, 50}, {10, 0}, {0, 0}} {
		if got := maxPercentile(c.n); got != c.want {
			t.Errorf("maxPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n, want := range map[int]float64{5000: 99, 200: 95} {
		ls := make(latencies, n)
		if got := ls.summarize(99).TailPct; got != want {
			t.Errorf("p99 of %d samples reported as p%v, want p%v", n, got, want)
		}
	}

	// 100 samples 1..100: p99 is capped to p90, which has exactly 10
	// samples beyond it.
	ls := make(latencies, 100)
	for i := range ls {
		ls[i] = int64(100 - i)
	}
	s := ls.summarize(99)
	if s.TailPct != 90 || s.Tail != 90 || s.P50 != 50 || s.N != 100 {
		t.Errorf("summary of 1..100 = %+v, want p50 50 and p90 90", s)
	}

	// A failed request counts as beyond every percentile: of 1000 requests,
	// 10 failures leave p99 on a real latency, 11 push it onto a failure.
	for failures, want := range map[int]int64{10: 990, 11: failedLatency} {
		ls := make(latencies, 1000)
		for i := range ls {
			ls[i] = int64(i + 1)
			if i >= 1000-failures {
				ls[i] = failedLatency
			}
		}
		if s := ls.summarize(99); s.Tail != float64(want) || s.TailPct != 99 {
			t.Errorf("p99 with %d failures = %v (p%v), want %v", failures, s.Tail, s.TailPct, want)
		}
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 || median(nil) != 0 {
		t.Error("median of an even count must average the middle pair")
	}
}

func TestSlicedMedians(t *testing.T) {
	ramp := func(n int, scale int64) latencies {
		ls := make(latencies, n)
		for i := range ls {
			ls[i] = int64(i+1) * scale
		}
		return ls
	}
	// One slow slice of three moves neither the median nor the tail.
	s := sliced{ramp(1000, 1), ramp(1000, 1), ramp(1000, 100), nil}
	if got := s.summarize(99); got.P50 != 500 || got.Tail != 990 || got.TailPct != 99 || got.N != 3000 {
		t.Errorf("three slices of 1000: %+v, want p50 500 and p99 990 over 3000 samples", got)
	}
	// Slices too small for p99 under the tail rule: the tail is pooled and
	// capped, the median still comes per slice.
	s = sliced{ramp(100, 1), ramp(100, 1), ramp(100, 100)}
	if got := s.summarize(99); got.P50 != 50 || got.TailPct >= 99 || got.Tail != 9000 {
		t.Errorf("three slices of 100: %+v, want p50 50 and a pooled tail below p99", got)
	}
	// Rates skip failures; an empty slice is a slice with no completions.
	// The middle mean of 0, 20, 40, 60 drops one value from each end.
	s = sliced{ramp(10, 1), append(ramp(20, 1), failedLatency), ramp(30, 1), nil}
	if got := s.rate(0.5); got != 30 {
		t.Errorf("rate over slices of 10, 20, 30 and 0 completions in 0.5 s = %v, want 30/s", got)
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{7}, 7}, {[]float64{1, 2, 100}, 2}, {[]float64{1, 2, 3, 100}, 2.5}, {[]float64{100, 1, 3, 2, 4, 5, 6, -50}, 3.5}} {
		if got := middleMean(c.xs); got != c.want {
			t.Errorf("middleMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := (sliced{nil, nil}).summarize(99); got != (summary{}) {
		t.Errorf("no samples: %+v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "setup", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},  // grandchild
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{
		1: 100 - (50 - 10) - (100 - 90), // children cover [10,50) and [90,100)
		2: 20,
		3: 30 - 20,
		4: 30,
		5: 20,
		6: 7,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSpanRefRoundTrip(t *testing.T) {
	s := span{ID: 42, Trace: 7}
	trace, parent, ok := parseRef(s.ref())
	if !ok || trace != 7 || parent != 42 {
		t.Errorf("parseRef(%q) = %d, %d, %v", s.ref(), trace, parent, ok)
	}
	if _, _, ok := parseRef("not-a-ref"); ok {
		t.Error("parseRef accepted a header without a span reference")
	}
}

func TestOracleRejectsCorruptedLabeling(t *testing.T) {
	const scale = 10
	n := 1 << scale
	edges := rmatEdges(scale, 2, 3)
	root := oracleOf(n, edges).roots()
	g, err := parconn.NewGraph(n, edges, parconn.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := parconn.ConnectedComponents(g, parconn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLabeling(root, labels); err != nil {
		t.Fatalf("correct labeling rejected: %v", err)
	}
	// Find a vertex outside the component of vertex 0 and a component with
	// at least two vertices.
	other, big := int32(-1), int32(-1)
	for v := int32(1); int(v) < n; v++ {
		if root[v] != root[0] && other < 0 {
			other = v
		}
		if root[v] == root[v-1] {
			big = v
		}
	}
	if other < 0 || big < 0 {
		t.Fatal("test graph needs two components and a non-trivial one")
	}
	for name, corrupt := range map[string]func(l []int32){
		"merge two components": func(l []int32) { l[other] = l[0] },
		"split a component":    func(l []int32) { l[big] = int32(n - 1 - int(l[big])) },
		"label out of range":   func(l []int32) { l[5] = int32(n) },
		"truncated":            nil,
	} {
		bad := append([]int32(nil), labels...)
		if corrupt == nil {
			bad = bad[:n-1]
		} else {
			corrupt(bad)
		}
		if err := checkLabeling(root, bad); err == nil {
			t.Errorf("%s: corrupted labeling accepted", name)
		}
	}
}

func TestRMatIsDeterministic(t *testing.T) {
	a, b := rmatEdges(12, 3, 9), rmatEdges(12, 3, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs between two generations: %v vs %v", i, a[i], b[i])
		}
	}
	c := rmatEdges(12, 3, 10)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("a different seed gave the same edges")
	}
}

// tiny returns a small copy of the named workload, with pins recorded for
// its own input, so a whole run takes a few seconds.
func tiny(t *testing.T, name string) options {
	t.Helper()
	w, err := workloadNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	w.scale, w.rounds, w.setups, w.recomputes = 10, 2, 2, 2
	p := pins{GraphSeed: 1, CCSeeds: []uint64{0, 1, 2}, Inputs: map[string]fingerprint{}}
	in, err := generate(w, w.scale, p.GraphSeed, "")
	if err != nil {
		t.Fatal(err)
	}
	p.Inputs[w.name] = in.fp
	return options{w: w, seed: 7, seconds: 1, dir: t.TempDir(), pins: p}
}

func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the service for a few seconds per run")
	}
	for _, name := range []string{"social-read", "social-churn"} {
		for _, traced := range []bool{false, true} {
			o := tiny(t, name)
			o.trace = traced
			var out bytes.Buffer
			rep, err := bench(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, traced, err, out.String())
			}
			want := []string{"setup_s", "query_p99_us", "insert_p95_ms", "heap_mb"}
			if traced {
				want = []string{"graph.read_s", "core.phase.contract_s", "serve.handler_us.insert", "trace.overhead.setup_s"}
			}
			got := map[string]bool{}
			for _, m := range rep.metrics {
				got[m.name] = true
			}
			for _, m := range want {
				if !got[m] {
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m)
				}
			}
			if !rep.correct || rep.attempted < 1 {
				t.Errorf("%s trace=%v: report %+v", name, traced, rep)
			}
		}
	}
}

func TestFingerprintMismatchFailsRun(t *testing.T) {
	for name, corrupt := range map[string]func(*fingerprint){
		"sha256": func(fp *fingerprint) { fp.SHA256 = strings.Repeat("0", 64) },
		"edges":  func(fp *fingerprint) { fp.M++ },
	} {
		o := tiny(t, "social-read")
		fp := o.pins.Inputs[o.w.name]
		corrupt(&fp)
		o.pins.Inputs[o.w.name] = fp
		rep, err := bench(o, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "input drift") {
			t.Errorf("%s mismatch: got report %v, err %v; want an input drift error", name, rep, err)
		}
		if errors.Is(err, errWrongAnswer) {
			t.Errorf("input drift reported as a wrong answer: %v", err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "social-read", "--trace", "2"},
		{"--workload", "social-read", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %q", args, out.String())
		}
	}
}

func TestEveryWorkloadIsPinned(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		fp, ok := p.Inputs[w.name]
		if !ok || fp.N != 1<<w.scale || len(fp.SHA256) != 64 {
			t.Errorf("workload %s: pinned fingerprint %+v", w.name, fp)
		}
		// A run's setups, and its recomputes, use each seed they reach
		// equally often, so no draw weighs more in the median.
		for _, k := range []int{w.rounds * w.setups, w.recomputes} {
			if k > len(p.CCSeeds) && k%len(p.CCSeeds) != 0 {
				t.Errorf("workload %s: %d labelings of one kind cycle unevenly through %d cc_seeds", w.name, k, len(p.CCSeeds))
			}
		}
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	// Components {0,1}, {2,3}, {4}.
	root := []int32{0, 0, 2, 2, 4}
	strict := checker{root: root, strict: true, labelOf: map[int32]int32{}}
	st := &clientStats{}
	for name, err := range map[string]error{
		"label from another component": strict.component(0, 2, st),
		"label not a vertex":           strict.component(0, 9, st),
		"negative label":               strict.component(0, -1, st),
		"connected pair split":         strict.same(0, 1, false, st),
		"separate pair joined":         strict.same(0, 4, true, st),
	} {
		if !errors.Is(err, errWrongAnswer) {
			t.Errorf("strict checker, %s: got %v, want a wrong answer", name, err)
		}
	}
	if err := strict.component(1, 0, st); err != nil {
		t.Fatal(err)
	}
	if err := strict.component(0, 1, st); !errors.Is(err, errWrongAnswer) {
		t.Errorf("one component answered with two labels: got %v", err)
	}

	// Under inserts a join is deferred to the final check, a split is not.
	churn := checker{root: root}
	st = &clientStats{}
	if err := churn.same(0, 4, true, st); err != nil || len(st.deferred) != 1 {
		t.Errorf("join under inserts: err %v, deferred %v", err, st.deferred)
	}
	if err := churn.same(2, 3, false, st); !errors.Is(err, errWrongAnswer) {
		t.Errorf("split under inserts: got %v, want a wrong answer", err)
	}
}
