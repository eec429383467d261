package metrics_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"parconn"
	"parconn/internal/obs"
	"parconn/internal/obs/metrics"
)

// scrape renders r and parses it back, the way a /metrics client sees it.
func scrape(t *testing.T, r *metrics.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := metrics.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// expect checks each series in want against the scrape.
func expect(t *testing.T, got map[string]float64, want map[string]float64) {
	t.Helper()
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("series %s missing", key)
			continue
		}
		if g != w {
			t.Errorf("%s = %v, want %v", key, g, w)
		}
	}
}

// tracedRuns runs the real engine twice with a Trace and a RegisterCC
// recorder side by side, and returns the scrape, the trace and the labels
// of the second run.
func tracedRuns(t *testing.T) (map[string]float64, *parconn.Trace, []int32) {
	t.Helper()
	reg := metrics.New()
	rec := metrics.RegisterCC(reg)
	tr := parconn.NewTrace()
	g := parconn.RMatGraph(12, parconn.RMatOptions{EdgeFactor: 4, Seed: 3})
	var labels []int32
	for seed := uint64(1); seed <= 2; seed++ {
		var err error
		labels, err = parconn.ConnectedComponents(g, parconn.Options{
			Seed: seed, Procs: 2, Recorder: parconn.MultiRecorder(tr, rec),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Runs()) != 2 || len(tr.LevelEnds()) == 0 || len(tr.Rounds()) == 0 {
		t.Fatalf("trace too thin to compare: %d runs, %d levels, %d rounds",
			len(tr.Runs()), len(tr.LevelEnds()), len(tr.Rounds()))
	}
	return scrape(t, reg), tr, labels
}

// TestRegisterCCMatchesTrace checks every cumulative counter and the
// last-run gauges against the matching fold over a trace of two real runs.
func TestRegisterCCMatchesTrace(t *testing.T) {
	got, tr, labels := tracedRuns(t)
	var casRetries int64
	for _, e := range tr.LevelEnds() {
		casRetries += e.CASRetries
	}
	lastLevels := 0 // LevelEnd events of the second run
	for _, ev := range tr.Events() {
		switch ev.V.(type) {
		case obs.RunStart:
			lastLevels = 0
		case obs.LevelEnd:
			lastLevels++
		}
	}
	count, _ := parconn.TopComponents(labels, 0)
	expect(t, got, map[string]float64{
		"parconn_cc_runs_total":        float64(len(tr.Runs())),
		"parconn_cc_run_errors_total":  0,
		"parconn_cc_runs_in_flight":    0,
		"parconn_cc_levels_total":      float64(len(tr.LevelEnds())),
		"parconn_cc_rounds_total":      float64(len(tr.Rounds())),
		"parconn_cc_cas_retries_total": float64(casRetries),
		"parconn_cc_last_components":   float64(count),
		"parconn_cc_last_levels":       float64(lastLevels),
	})
	counterSums := map[string]int64{}
	for _, c := range tr.Counters() {
		counterSums[c.Name] += c.Value
	}
	for _, name := range obs.CounterNames {
		if got, want := got["parconn_cc_"+name+"_total"], float64(counterSums[name]); got != want {
			t.Errorf("counter %s: %v, trace holds %v", name, got, want)
		}
	}
}

// TestRegisterCCHistogramsMatchTrace checks the run, per-phase and
// per-round histograms against a trace of two real runs: each _count is
// the number of events, each phase _sum their total duration.
func TestRegisterCCHistogramsMatchTrace(t *testing.T) {
	got, tr, _ := tracedRuns(t)
	var frontierSum int64
	for _, r := range tr.Rounds() {
		frontierSum += int64(r.Frontier)
	}
	expect(t, got, map[string]float64{
		"parconn_cc_run_seconds_count":             float64(len(tr.Runs())),
		"parconn_cc_round_seconds_count":           float64(len(tr.Rounds())),
		"parconn_cc_round_frontier_vertices_count": float64(len(tr.Rounds())),
		"parconn_cc_round_frontier_vertices_sum":   float64(frontierSum),
	})
	counts := map[string]int{}
	sums := map[string]time.Duration{}
	for _, p := range tr.Phases() {
		counts[p.Name]++
		sums[p.Name] += p.Duration
	}
	if len(counts) == 0 {
		t.Fatal("trace holds no phase events")
	}
	for _, name := range obs.PhaseNames {
		ls := metrics.L("phase", name)
		if c := got[metrics.Series("parconn_cc_phase_seconds_count", ls)]; c != float64(counts[name]) {
			t.Errorf("phase %s: _count %v, trace holds %d events", name, c, counts[name])
		}
		s := got[metrics.Series("parconn_cc_phase_seconds_sum", ls)]
		if want := sums[name].Seconds(); math.Abs(s-want) > 1e-9*math.Max(1, want) {
			t.Errorf("phase %s: _sum %v s, trace holds %v", name, s, sums[name])
		}
	}
}

// TestRegisterCCLivePosition checks the position gauges between events of
// an unfinished run, the end-of-run answer, and that a failed run counts
// as an error without overwriting the last good answer.
func TestRegisterCCLivePosition(t *testing.T) {
	reg := metrics.New()
	rec := metrics.RegisterCC(reg)
	expect(t, scrape(t, reg), map[string]float64{
		"parconn_cc_runs_in_flight": 0, "parconn_cc_level": -1, "parconn_cc_round": -1,
	})

	rec.RunStart(obs.RunStart{Algorithm: "decomp-arb", Vertices: 10, Edges: 18, Procs: 4})
	rec.LevelStart(obs.LevelStart{Level: 0, Vertices: 10, EdgesIn: 18})
	rec.LevelEnd(obs.LevelEnd{Level: 0, Vertices: 10, EdgesIn: 18, EdgesOut: 9})
	rec.LevelStart(obs.LevelStart{Level: 1, Vertices: 5, EdgesIn: 9})
	expect(t, scrape(t, reg), map[string]float64{"parconn_cc_level": 1, "parconn_cc_round": -1})
	rec.Round(obs.Round{Level: 1, Round: 3, Frontier: 4})
	rec.Phase(obs.Phase{Level: 1, Name: obs.PhaseBFSSparse, Duration: time.Microsecond})
	expect(t, scrape(t, reg), map[string]float64{
		"parconn_cc_runs_in_flight":                          1,
		"parconn_cc_level":                                   1,
		"parconn_cc_round":                                   3,
		"parconn_cc_frontier_vertices":                       4,
		"parconn_cc_runs_total":                              0,
		`parconn_cc_phase_seconds_count{phase="bfs_sparse"}`: 1,
	})
	rec.LevelEnd(obs.LevelEnd{Level: 1, Vertices: 5, EdgesIn: 9})
	rec.RunEnd(obs.RunEnd{Components: 3, Duration: 10 * time.Microsecond})
	expect(t, scrape(t, reg), map[string]float64{
		"parconn_cc_runs_in_flight":  0,
		"parconn_cc_runs_total":      1,
		"parconn_cc_last_components": 3,
		"parconn_cc_last_levels":     2,
	})

	// Names outside the closed sets and negative counts are dropped.
	rec.Phase(obs.Phase{Name: "custom_phase", Duration: time.Second})
	rec.Counter(obs.Counter{Name: "custom_counter", Value: 1})
	rec.Counter(obs.Counter{Name: obs.CounterPoolJoins, Value: -1})

	rec.RunStart(obs.RunStart{Algorithm: "decomp-min"})
	rec.RunEnd(obs.RunEnd{Err: "boom"})
	got := scrape(t, reg)
	expect(t, got, map[string]float64{
		"parconn_cc_runs_total":              2,
		"parconn_cc_run_errors_total":        1,
		"parconn_cc_last_components":         3,
		"parconn_cc_pool_worker_joins_total": 0,
	})
	for key := range got {
		if strings.Contains(key, "custom") {
			t.Errorf("unknown name leaked into %s", key)
		}
	}
}

// emitRuns drives n minimal runs through rec, each with one level, one
// round of frontier 2, one init phase, one CAS retry and 4096 reused bytes.
func emitRuns(rec obs.Recorder, n int) {
	for i := 0; i < n; i++ {
		rec.RunStart(obs.RunStart{Algorithm: "decomp-arb"})
		rec.LevelStart(obs.LevelStart{Level: 0})
		rec.Round(obs.Round{Round: 0, Frontier: 2, Duration: time.Microsecond})
		rec.Phase(obs.Phase{Name: obs.PhaseInit, Duration: time.Microsecond})
		rec.LevelEnd(obs.LevelEnd{Level: 0, CASRetries: 1})
		rec.Counter(obs.Counter{Name: obs.CounterArenaReused, Value: 4096})
		rec.RunEnd(obs.RunEnd{Components: 3, Duration: 10 * time.Microsecond})
	}
}

// TestRegisterCCConcurrentRuns drives runs from two goroutines through one
// recorder, the documented sharing contract: the totals must sum both
// exactly (the race detector guards the rest).
func TestRegisterCCConcurrentRuns(t *testing.T) {
	reg := metrics.New()
	rec := metrics.RegisterCC(reg)
	const runsPerWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			emitRuns(rec, runsPerWorker)
		}()
	}
	wg.Wait()
	const runs = 2 * runsPerWorker
	expect(t, scrape(t, reg), map[string]float64{
		"parconn_cc_runs_total":                        runs,
		"parconn_cc_runs_in_flight":                    0,
		"parconn_cc_levels_total":                      runs,
		"parconn_cc_rounds_total":                      runs,
		"parconn_cc_cas_retries_total":                 runs,
		"parconn_cc_arena_reused_bytes_total":          runs * 4096,
		"parconn_cc_round_frontier_vertices_sum":       runs * 2,
		`parconn_cc_phase_seconds_count{phase="init"}`: runs,
	})
}

// TestRegisterCCConcurrentScrapes scrapes from several goroutines while
// two writers drive runs: every scrape must parse, and none may see the
// in-flight gauge outside [0, 2] or more finished runs than were driven.
func TestRegisterCCConcurrentScrapes(t *testing.T) {
	reg := metrics.New()
	rec := metrics.RegisterCC(reg)
	const (
		runsPerWorker = 25
		runs          = 2 * runsPerWorker
	)
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			emitRuns(rec, runsPerWorker)
		}()
	}
	done := make(chan struct{})
	errs := make(chan error, 4)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var b strings.Builder
				if err := reg.WriteText(&b); err != nil {
					errs <- err
					return
				}
				parsed, err := metrics.ParseText(strings.NewReader(b.String()))
				if err != nil {
					errs <- err
					return
				}
				if n := parsed["parconn_cc_runs_in_flight"]; n < 0 || n > 2 {
					errs <- fmt.Errorf("runs_in_flight %v outside [0, 2]", n)
					return
				}
				if n := parsed["parconn_cc_runs_total"]; n < 0 || n > runs {
					errs <- fmt.Errorf("runs_total %v outside [0, %d]", n, runs)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	expect(t, scrape(t, reg), map[string]float64{
		"parconn_cc_runs_total":     runs,
		"parconn_cc_runs_in_flight": 0,
	})
}
