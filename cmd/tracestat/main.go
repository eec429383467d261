// Command tracestat summarizes and compares JSONL observability traces
// written by cmd/connect, cmd/bench, or any JSONLRecorder. It is the
// offline read side of the event stream: "summary" turns one trace into
// per-phase histogram and per-level edge-decay tables; "diff" compares a
// trace against an older trace and exits non-zero when a metric regressed
// past the tolerance, which makes it usable as a CI perf gate.
//
// Usage:
//
//	tracestat summary run.jsonl
//	tracestat diff baseline.jsonl run.jsonl
//	tracestat diff -tol 2 -floor 20ms baseline.jsonl run.jsonl
//
// Diff compares, for every metric present on both sides: total time per
// phase name and median run duration per algorithm. A metric regresses
// when the new value exceeds base*tol AND the absolute increase exceeds
// the floor (the floor suppresses noise on metrics too small to gate on).
// Exit codes: 0 no regression, 1 regression detected, 2 usage or input
// error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"parconn"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "summary":
		return runSummary(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "speedup":
		return runSpeedup(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "tracestat: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  tracestat summary TRACE.jsonl
  tracestat diff [-tol N] [-floor DUR] BASE.jsonl NEW.jsonl
  tracestat speedup [-algorithm NAME] [-efficiency-floor F] BENCH_speedup.json

Diff compares two JSONL traces. Speedup gates a cmd/bench -experiment
speedup report: every point of the gated algorithm must reach the
efficiency floor.
Serving and churn are measured and compared by perfbench (see
perfbench/README.md), not here.
`)
}

// loadTrace parses and validates one JSONL trace file.
func loadTrace(path string) ([]parconn.TraceEvent, parconn.TraceSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, parconn.TraceSummary{}, err
	}
	defer f.Close()
	events, err := parconn.ParseTrace(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, parconn.TraceSummary{}, fmt.Errorf("%s: %w", path, err)
	}
	sum, err := parconn.ValidateTraceEvents(events)
	if err != nil {
		return nil, parconn.TraceSummary{}, fmt.Errorf("%s: %w", path, err)
	}
	return events, sum, nil
}

// runStat is one RunStart/RunEnd pair from the stream.
type runStat struct {
	Algorithm  string
	Vertices   int
	Edges      int64
	Procs      int
	Components int
	Duration   time.Duration
	Err        string
}

// traceStats is everything the summary and diff views need from a trace.
type traceStats struct {
	Env      parconn.Env
	Runs     []runStat
	Phases   map[string]*parconn.Histogram // phase name -> duration ns, all levels merged
	Levels   []levelStat                   // indexed by level
	Frontier parconn.Histogram             // Round.Frontier samples
}

// levelStat aggregates the LevelEnd events of one contraction level across
// every run in the trace.
type levelStat struct {
	Count    int   // LevelEnd events seen for this level
	Vertices int64 // summed across runs
	EdgesIn  int64
	EdgesCut int64
	EdgesOut int64
	Rounds   int64
}

func statsOf(events []parconn.TraceEvent) *traceStats {
	st := &traceStats{
		Env:    parconn.TraceEnvOf(events),
		Phases: map[string]*parconn.Histogram{},
	}
	var open *runStat
	for _, ev := range events {
		switch v := ev.V.(type) {
		case parconn.RunStart:
			st.Runs = append(st.Runs, runStat{
				Algorithm: v.Algorithm, Vertices: v.Vertices, Edges: v.Edges, Procs: v.Procs,
			})
			open = &st.Runs[len(st.Runs)-1]
		case parconn.RunEnd:
			if open != nil {
				open.Components = v.Components
				open.Duration = v.Duration
				open.Err = v.Err
				open = nil
			}
		case parconn.Phase:
			h := st.Phases[v.Name]
			if h == nil {
				h = &parconn.Histogram{}
				st.Phases[v.Name] = h
			}
			h.Record(v.Duration.Nanoseconds())
		case parconn.Round:
			st.Frontier.Record(int64(v.Frontier))
		case parconn.LevelEnd:
			for len(st.Levels) <= v.Level {
				st.Levels = append(st.Levels, levelStat{})
			}
			l := &st.Levels[v.Level]
			l.Count++
			l.Vertices += int64(v.Vertices)
			l.EdgesIn += v.EdgesIn
			l.EdgesCut += v.EdgesCut
			l.EdgesOut += v.EdgesOut
			l.Rounds += int64(v.Rounds)
		}
	}
	return st
}

// sortedPhaseNames returns the phase names ordered by descending total time,
// the order a reader scanning for the expensive phase wants.
func (st *traceStats) sortedPhaseNames() []string {
	names := make([]string, 0, len(st.Phases))
	for name := range st.Phases {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := st.Phases[names[i]].Sum(), st.Phases[names[j]].Sum()
		if a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	return names
}

func runSummary(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracestat summary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		usage(stderr)
		return 2
	}
	path := fs.Arg(0)
	events, sum, err := loadTrace(path)
	if err != nil {
		fmt.Fprintf(stderr, "tracestat: %v\n", err)
		return 2
	}
	st := statsOf(events)

	fmt.Fprintf(stdout, "trace: %s (%d events, %d runs, %d levels, %d rounds)\n",
		path, sum.Events, sum.Runs, sum.Levels, sum.Rounds)
	if !st.Env.IsZero() {
		fmt.Fprintf(stdout, "env: %s\n", st.Env)
	}
	for i, r := range st.Runs {
		status := fmt.Sprintf("%d components in %v", r.Components, roundDur(r.Duration))
		if r.Err != "" {
			status = "ERROR " + r.Err
		}
		fmt.Fprintf(stdout, "run %d: %s n=%d m=%d procs=%d: %s\n",
			i, r.Algorithm, r.Vertices, r.Edges, r.Procs, status)
	}

	if len(st.Phases) > 0 {
		// share is each phase's fraction of the summed phase time, so
		// gap-hunting ("which phase do I attack next") needs no manual
		// arithmetic over the ns columns.
		var totalNS int64
		for _, h := range st.Phases {
			totalNS += h.Sum()
		}
		fmt.Fprintf(stdout, "\n%-16s %7s %12s %7s %12s %12s %12s %12s\n",
			"phase", "count", "total", "share", "mean", "p50", "p90", "max")
		for _, name := range st.sortedPhaseNames() {
			s := st.Phases[name].Snapshot()
			share := "-"
			if totalNS > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(s.Sum)/float64(totalNS))
			}
			fmt.Fprintf(stdout, "%-16s %7d %12v %7s %12v %12v %12v %12v\n",
				name, s.Count,
				roundDur(time.Duration(s.Sum)),
				share,
				roundDur(time.Duration(int64(s.Mean()))),
				roundDur(time.Duration(s.Quantile(0.5))),
				roundDur(time.Duration(s.Quantile(0.9))),
				roundDur(time.Duration(s.Max)))
		}
	}

	if fr := st.Frontier.Snapshot(); fr.Count > 0 {
		fmt.Fprintf(stdout, "\nfrontier sizes: %s\n", fr)
	}

	if len(st.Levels) > 0 {
		fmt.Fprintf(stdout, "\n%-6s %6s %12s %12s %12s %12s %8s\n",
			"level", "ends", "vertices", "edges_in", "edges_cut", "edges_out", "decay")
		for lvl, l := range st.Levels {
			decay := "-"
			if l.EdgesIn > 0 {
				decay = fmt.Sprintf("%.3f", float64(l.EdgesOut)/float64(l.EdgesIn))
			}
			fmt.Fprintf(stdout, "%-6d %6d %12d %12d %12d %12d %8s\n",
				lvl, l.Count, l.Vertices, l.EdgesIn, l.EdgesCut, l.EdgesOut, decay)
		}
	}
	return 0
}

// metric is one comparable quantity extracted from a trace; values are
// nanoseconds.
type metric struct {
	base, new int64
	hasBase   bool
	hasNew    bool
}

// metrics flattens a trace into the comparable quantities diff gates on:
// total nanoseconds per phase name, and the median run duration per
// algorithm.
func (st *traceStats) metrics() map[string]int64 {
	m := map[string]int64{}
	for name, h := range st.Phases {
		m["phase/"+name] = h.Sum()
	}
	byAlg := map[string][]time.Duration{}
	for _, r := range st.Runs {
		if r.Err == "" && r.Duration > 0 {
			byAlg[r.Algorithm] = append(byAlg[r.Algorithm], r.Duration)
		}
	}
	for alg, ds := range byAlg {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		m["run/"+alg] = ds[len(ds)/2].Nanoseconds()
	}
	return m
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracestat diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tol   = fs.Float64("tol", 1.5, "regression threshold: new > base*tol flags the metric")
		floor = fs.Duration("floor", 2*time.Millisecond, "ignore regressions whose absolute increase is below this duration")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		usage(stderr)
		return 2
	}
	if *tol <= 0 {
		fmt.Fprintln(stderr, "tracestat: -tol must be positive")
		return 2
	}
	basePath, newPath := fs.Arg(0), fs.Arg(1)

	baseEvents, _, err := loadTrace(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "tracestat: %v\n", err)
		return 2
	}
	newEvents, _, err := loadTrace(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "tracestat: %v\n", err)
		return 2
	}
	baseStats, newStats := statsOf(baseEvents), statsOf(newEvents)

	if diffs := baseStats.Env.Mismatch(newStats.Env); len(diffs) > 0 {
		fmt.Fprintf(stderr, "tracestat: WARNING: environment mismatch (timings not directly comparable): %s\n",
			strings.Join(diffs, "; "))
	}

	merged := map[string]*metric{}
	for k, v := range baseStats.metrics() {
		merged[k] = &metric{base: v, hasBase: true}
	}
	for k, v := range newStats.metrics() {
		m := merged[k]
		if m == nil {
			m = &metric{}
			merged[k] = m
		}
		m.new, m.hasNew = v, true
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	regressions := 0
	compared := 0
	fmt.Fprintf(stdout, "%-28s %12s %12s %8s\n", "metric", "base", "new", "ratio")
	for _, k := range keys {
		m := merged[k]
		switch {
		case !m.hasNew:
			fmt.Fprintf(stdout, "%-28s %12v %12s %8s  (missing in new trace)\n",
				k, roundDur(time.Duration(m.base)), "-", "-")
		case !m.hasBase:
			fmt.Fprintf(stdout, "%-28s %12s %12v %8s  (missing in baseline)\n",
				k, "-", roundDur(time.Duration(m.new)), "-")
		default:
			compared++
			ratio := float64(m.new) / float64(m.base)
			verdict := "ok"
			if m.new > int64(float64(m.base)**tol) && m.new-m.base > floor.Nanoseconds() {
				regressions++
				verdict = fmt.Sprintf("REGRESSION (+%v > %v floor)",
					roundDur(time.Duration(m.new-m.base)), *floor)
			}
			fmt.Fprintf(stdout, "%-28s %12v %12v %7.2fx  %s\n",
				k, roundDur(time.Duration(m.base)), roundDur(time.Duration(m.new)), ratio, verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "tracestat: no metric exists on both sides; nothing compared")
		return 2
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "tracestat: %d regression(s) (tolerance %.2fx, floor %v)\n", regressions, *tol, *floor)
		return 1
	}
	fmt.Fprintf(stdout, "tracestat: no regressions in %d compared metric(s) (tolerance %.2fx, floor %v)\n",
		compared, *tol, *floor)
	return 0
}

// speedupReport mirrors the subset of internal/bench's BENCH_speedup.json
// schema this tool gates on. Kept as a local struct: importing
// internal/bench would pull the testing package into a shipped binary.
type speedupReport struct {
	Env     parconn.Env `json:"env"`
	Results []struct {
		Input     string `json:"input"`
		Algorithm string `json:"algorithm"`
		Points    []struct {
			Procs            int     `json:"procs"`
			EffectiveWorkers int     `json:"effective_workers"`
			NsPerOp          float64 `json:"ns_per_op"`
			Speedup          float64 `json:"speedup"`
			Efficiency       float64 `json:"efficiency"`
		} `json:"points"`
	} `json:"results"`
}

// runSpeedup gates a speedup-sweep report: the gated algorithm's efficiency
// (speedup over effective workers, i.e. procs clamped to the recording
// host's cores) must reach the floor at every swept procs setting. The
// floor's job is to catch parallel-efficiency regressions — an engine
// change that makes adding workers slow the run down — not to assert
// absolute times, so it is robust to slow CI hosts; the default 0.5 trips
// when extra workers cost a third of the serial time, well past scheduler
// noise.
func runSpeedup(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracestat speedup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alg   = fs.String("algorithm", "decomp-arb-hybrid-CC", "algorithm whose sweep is gated (others are reported only)")
		floor = fs.Float64("efficiency-floor", 0.5, "minimum efficiency at every swept procs setting")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		usage(stderr)
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "tracestat: %v\n", err)
		return 2
	}
	var rep speedupReport
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Results) == 0 {
		fmt.Fprintf(stderr, "tracestat: %s: not a speedup report\n", fs.Arg(0))
		return 2
	}
	gated := 0
	failures := 0
	fmt.Fprintf(stdout, "%-10s %-22s %6s %8s %12s %9s %11s\n",
		"input", "algorithm", "procs", "workers", "ns/op", "speedup", "efficiency")
	for _, s := range rep.Results {
		for _, p := range s.Points {
			verdict := ""
			if s.Algorithm == *alg {
				gated++
				if p.Efficiency < *floor {
					failures++
					verdict = fmt.Sprintf("  BELOW FLOOR %.2f", *floor)
				}
			}
			fmt.Fprintf(stdout, "%-10s %-22s %6d %8d %12.0f %8.2fx %11.2f%s\n",
				s.Input, s.Algorithm, p.Procs, p.EffectiveWorkers, p.NsPerOp, p.Speedup, p.Efficiency, verdict)
		}
	}
	if gated == 0 {
		fmt.Fprintf(stderr, "tracestat: no points for gated algorithm %q\n", *alg)
		return 2
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "tracestat: %d point(s) of %s below efficiency floor %.2f\n", failures, *alg, *floor)
		return 1
	}
	fmt.Fprintf(stdout, "tracestat: %s holds efficiency >= %.2f at all %d swept setting(s)\n", *alg, *floor, gated)
	return 0
}

// roundDur trims a duration to four significant digits so table cells stay
// readable (1.234567ms -> 1.235ms).
func roundDur(d time.Duration) time.Duration {
	abs := d
	if abs < 0 {
		abs = -abs
	}
	p := time.Duration(1)
	for abs >= 10*p {
		p *= 10
	}
	if p < 1000 {
		return d
	}
	return d.Round(p / 1000)
}
