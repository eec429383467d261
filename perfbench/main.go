// Command perfbench is the repository's end-to-end benchmark: from a graph
// file on disk to labels and the first answered query, a from-scratch
// recompute, and the HTTP service under a closed-loop read or churn mix,
// with per-layer attribution from a separate traced run. See README.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload social-read --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result as one JSON object. The
// run exits non-zero on a wrong answer or when a generated input drifts
// from its recorded fingerprint.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	loadClients     = 2                      // closed-loop clients, one keep-alive connection each
	warmup          = 500 * time.Millisecond // per-round closed-loop warmup, excluded from every metric
	sliceLen        = 500 * time.Millisecond // loop metrics are middle means over slices of about this length
	minProbeInserts = 60                     // insert probe samples per run, at least, over all clients
	dataDir         = ".bench_build/perfbench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one parsed invocation.
type options struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	dir     string // where inputs and span logs are written
	pins    pins
}

func run(args []string, stdout, stderr io.Writer) int {
	p, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: rmat-text-ingest, social-read, or social-churn")
	seed := fs.Uint64("seed", 1, "seed of the request streams: queried vertices and inserted edges")
	seconds := fs.Int("seconds", 15, "length of the measured closed-loop window")
	trace := fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadNamed(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload NAME, --seconds >= 1, --trace 0|1 (%v)\n", err)
		return 2
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dataDir, pins: p}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if errors.Is(err, errWrongAnswer) && rep != nil {
			rep.correct, rep.metrics = false, nil
			rep.attempted = max(rep.attempted, 1)
			rep.print(stdout)
		}
		return 1
	}
	fmt.Fprintf(stdout, "peak_rss_mb = %.1f\n", peakRSSMB())
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench runs one workload: generate and check the input, then run rounds.
// Each round stands the service up (setup), recomputes on the loaded graph,
// drives a closed-loop segment, probes inserts when the loop had none, and
// checks the final state. Spreading the repetitions over rounds makes every
// metric sample the whole run rather than one stretch of it. Progress and
// the environment go to out; the report is returned, and on a wrong answer
// it comes back with the error, holding the operations counted so far.
func bench(o options, out io.Writer) (*report, error) {
	w := o.w
	e := captureEnv()
	clients := min(loadClients, e.NProc) // never more clients or connections than cores
	fmt.Fprintf(out, "env: %v\n", e)
	in, err := prepareInput(w, o.dir, o.pins)
	if err != nil {
		return nil, err
	}
	defer os.Remove(in.path)
	fmt.Fprintf(out, "input: %s graph_seed=%d n=%d m=%d bytes=%d sha256=%s (matches inputs.json); request seed=%d\n",
		w.name, o.pins.GraphSeed, in.fp.N, in.fp.M, in.fp.Bytes, in.fp.SHA256, o.seed)
	segment := time.Duration(o.seconds) * time.Second / time.Duration(w.rounds)
	slices := max(1, int((segment+sliceLen/2)/sliceLen))
	fmt.Fprintf(out, "load: closed loop, %d clients on %d keep-alive connections; %d rounds of %v after a %v warmup each (excluded), %ds measured in slices of %v\n",
		clients, clients, w.rounds, segment, warmup, o.seconds, segment/time.Duration(slices))

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := &report{correct: true}
	m := measured{slices: slices, sliceSec: segment.Seconds() / float64(slices)}
	for round := 0; round < w.rounds; round++ {
		if err := m.round(o, in, round, clients, segment, tr, rep); err != nil {
			return rep, fmt.Errorf("round %d: %w", round, err)
		}
	}
	return m.report(o, in, tr, rep, out)
}

// measured accumulates samples over the rounds of a run.
type measured struct {
	slices         int       // slices per loop segment
	sliceSec       float64   // length of one slice, seconds
	setupU, setupT []float64 // untraced and traced setup seconds
	recompute      []float64
	heapBase       uint64    // live heap before the first setup, bytes
	heapMB         []float64 // service heap after each first-round setup
	cc             []ccRun   // traced ConnectedComponents calls
	reads, inserts sliced    // every loop and probe slice of the run
	readsT         latencies // reads in the traced half-segments
	gc             []gcWindow
	lastLabels     []int32
}

// round runs one round on a freshly stood-up service. Each round has
// w.setups setups back to back; the last one's service serves the round. In
// the traced run (tr set) one setup of a round is untraced and one traced,
// and its loop segment has an untraced and a traced half; odd rounds run the
// traced one first, so neither side always runs second, on warmer caches.
// Setups and recomputes label with the pinned seeds in run order; the two
// setups of a traced round share one, so their difference is the tracing.
func (m *measured) round(o options, in *input, round, clients int, segment time.Duration, tr *tracer, rep *report) error {
	w := o.w
	r := splitmix{s: o.seed ^ uint64(round+1)*0x243f6a8885a308d3}
	n := in.fp.N
	var svc *service
	defer func() {
		if svc != nil {
			svc.close()
		}
	}()
	passes := make([]bool, w.setups)
	if tr != nil {
		passes = []bool{round%2 == 1, round%2 == 0}
	}
	var ms runtime.MemStats
	for p, tracedSetup := range passes {
		if svc != nil {
			if err := svc.close(); err != nil {
				return fmt.Errorf("closing service: %w", err)
			}
			svc = nil
		}
		runtime.GC() // the last service's garbage is not this setup's cost
		if round == 0 && p == 0 {
			runtime.ReadMemStats(&ms)
			m.heapBase = ms.HeapAlloc
		}
		seed := o.pins.ccSeed(round*len(passes) + p)
		if tr != nil {
			seed = o.pins.ccSeed(round)
		}
		res, err := standUp(in, w.text, tr, tracedSetup, r.vertex(n), seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		svc = res.svc
		rep.attempted++
		if err := checkLabeling(in.root, svc.labels); err != nil {
			return wrongf("setup labeling: %v", err)
		}
		if !tracedSetup {
			m.setupU = append(m.setupU, res.dur.Seconds())
		} else {
			m.setupT = append(m.setupT, res.dur.Seconds())
			m.cc = append(m.cc, res.cc)
		}
		if round == 0 {
			// The heap the service holds: live heap after setup less what
			// the benchmark held before the first one (the input's oracle),
			// read before any latency sample is kept. It includes the
			// library's pooled scratch buffers, as a served process would.
			runtime.GC()
			runtime.ReadMemStats(&ms)
			m.heapMB = append(m.heapMB, (float64(ms.HeapAlloc)-float64(m.heapBase))/(1<<20))
		}
	}

	for k := round * w.recomputes / w.rounds; k < (round+1)*w.recomputes/w.rounds; k++ {
		runtime.GC()
		labels, cc, err := label(svc.g, tr != nil, o.pins.ccSeed(k))
		if err != nil {
			return fmt.Errorf("recompute: %w", err)
		}
		rep.attempted++
		if err := checkLabeling(in.root, labels); err != nil {
			return wrongf("recompute labeling: %v", err)
		}
		m.recompute = append(m.recompute, cc.dur.Seconds())
		if tr != nil {
			m.cc = append(m.cc, cc)
		}
	}

	cfg := loopConfig{
		clients: clients, warmup: warmup, window: segment, slices: m.slices,
		traceFrom: segment / 2, traceUntil: segment, insertEvery: w.insertEvery, seed: r.next(),
	}
	if round%2 == 1 {
		cfg.traceFrom, cfg.traceUntil = 0, segment/2
	}
	k := checker{root: in.root, strict: w.insertEvery == 0}
	var gc gcWindow
	gc.start(warmup, segment)
	stats, err := runLoop(svc.url, n, cfg, k, tr)
	gc.wait()
	if err != nil {
		return err
	}
	m.gc = append(m.gc, gc)
	all := stats
	if w.insertEvery == 0 {
		// No inserts in the loop: measure them with the loop's clients
		// inserting only, for a third of the segment, as one slice. The
		// loop's garbage is not the inserts' cost. Two writers keep both
		// cores busy as on social-churn; a single writer on an idle
		// service slowed twice as much whenever the host was busy.
		runtime.GC()
		probe := loopConfig{
			clients: clients, window: segment / 3, traceUntil: math.MaxInt64,
			minOps: minProbeInserts / (w.rounds * clients), insertEvery: 1, seed: r.next(),
		}
		k.strict = false
		ps, err := runLoop(svc.url, n, probe, k, tr)
		if err != nil {
			return err
		}
		all = append(all, ps...)
	}
	m.reads = append(m.reads, merge(stats, func(st *clientStats) sliced { return st.reads })...)
	m.inserts = append(m.inserts, merge(all, func(st *clientStats) sliced { return st.inserts })...)
	for _, st := range stats {
		m.readsT = append(m.readsT, st.readsTraced...)
	}
	for _, st := range all {
		rep.attempted += st.attempted
		rep.failed += st.failed
	}
	m.lastLabels = svc.labels
	return finalCheck(svc.url, in.base, all)
}

// report turns the samples into the run's metrics: the end-to-end ones for
// the untraced run, the per-layer ones for the traced run.
func (m *measured) report(o options, in *input, tr *tracer, rep *report, out io.Writer) (*report, error) {
	if !o.trace {
		q := m.reads.summarize(99)
		ins := m.inserts.summarize(95)
		rep.add("setup_s", "s", median(m.setupU), len(m.setupU), "")
		rep.add("recompute_s", "s", median(m.recompute), len(m.recompute), "")
		rep.add("query_qps", "1/s", m.reads.rate(m.sliceSec), q.N, "middle mean over slices")
		rep.add("query_p50_us", "us", q.P50/1e3, q.N, "")
		rep.add("query_p99_us", "us", q.Tail/1e3, q.N, pctNote(99, q))
		rep.add("insert_p50_ms", "ms", ins.P50/1e6, ins.N, "")
		rep.add("insert_p95_ms", "ms", ins.Tail/1e6, ins.N, pctNote(95, ins))
		rep.add("heap_mb", "MB", median(m.heapMB), len(m.heapMB), "")
		fmt.Fprintf(out, "failed_frac = %.6f (%d of %d operations)\n",
			float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
		return rep, nil
	}

	spans := tr.snapshot()
	path := filepath.Join(o.dir, "spans-"+o.w.name+".jsonl")
	if err := writeFile(path, func(f io.Writer) error { return writeSpans(f, spans) }); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "trace: %d spans written to %s\n", len(spans), path)
	validate, err := validateProbe(in.path, o.w.text)
	if err != nil {
		return nil, fmt.Errorf("validate probe: %w", err)
	}
	insUS, snapMS, findNS, err := incrementalProbe(m.lastLabels, o.seed)
	if err != nil {
		return nil, fmt.Errorf("incremental probe: %w", err)
	}
	l := layers{
		spans: spans, cc: m.cc, fileBytes: in.fp.Bytes, gc: m.gc,
		validate: validate, insertUS: insUS, snapshotMS: snapMS, findNS: findNS,
	}
	l.add(rep)
	qU, qT := m.reads.pooled().summarize(50), m.readsT.summarize(50)
	rep.add("trace.overhead.setup_s", "s", median(m.setupT)-median(m.setupU), len(m.setupT), "traced minus untraced setup_s")
	rep.add("trace.overhead.query_p50_us", "us", (qT.P50-qU.P50)/1e3, qT.N, "traced minus untraced query_p50_us")
	return rep, nil
}

// merge returns the slices of the clients' samples that pick selects, each
// slice holding every client's samples from that stretch of the window.
func merge(stats []*clientStats, pick func(*clientStats) sliced) sliced {
	var out sliced
	for _, st := range stats {
		s := pick(st)
		if len(out) < len(s) {
			out = append(out, make(sliced, len(s)-len(out))...)
		}
		for i, ls := range s {
			out[i] = append(out[i], ls...)
		}
	}
	return out
}

// pctNote names the percentile a tail metric reports when the sample count
// capped it below the one asked for.
func pctNote(want float64, s summary) string {
	if s.TailPct >= want {
		return ""
	}
	return fmt.Sprintf("p%.4g reported: %d samples leave fewer than %d beyond p%g", s.TailPct, s.N, minTail, want)
}

// gcWindow samples the runtime's GC and allocation counters at the start
// and end of the measured window.
type gcWindow struct {
	before, after runtime.MemStats
	done          chan struct{}
}

func (g *gcWindow) start(warmup, window time.Duration) {
	g.done = make(chan struct{})
	go func() {
		defer close(g.done)
		time.Sleep(warmup)
		runtime.ReadMemStats(&g.before)
		time.Sleep(window)
		runtime.ReadMemStats(&g.after)
	}()
}

func (g *gcWindow) wait() { <-g.done }
