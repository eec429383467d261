package metrics

import (
	"sync/atomic"

	"parconn/internal/obs"
)

// ccRecorder is the Recorder RegisterCC returns. Every handle it touches
// was registered at construction, so an event costs a few atomic updates:
// no registration, no map, no lock.
type ccRecorder struct {
	runs, runErrors            *Counter
	levels, rounds, casRetries *Counter
	counters                   [len(obs.CounterNames)]*Counter
	inFlight                   *Gauge
	level, round, frontier     *Gauge
	lastComponents, lastLevels *Gauge
	runLevels                  atomic.Int64 // LevelEnd events since the last RunStart
	runNS, roundNS, roundVerts obs.Histogram
	phaseNS                    [len(obs.PhaseNames)]obs.Histogram
}

// RegisterCC registers the connectivity engine's series in r and returns
// the Recorder that feeds them, so a /metrics scrape shows the run in
// progress and the paper's per-phase breakdown (Figures 5-7) cumulatively:
//
//	parconn_cc_runs_total, parconn_cc_run_errors_total   finished / failed runs
//	parconn_cc_runs_in_flight                            runs started, not finished
//	parconn_cc_run_seconds                               histogram of run wall time
//	parconn_cc_phase_seconds{phase}                      histogram per phase section
//	parconn_cc_levels_total, parconn_cc_rounds_total     contraction levels, BFS rounds
//	parconn_cc_cas_retries_total                         lost CAS/writeMin races
//	parconn_cc_level, parconn_cc_round                   current position (-1 = not yet)
//	parconn_cc_frontier_vertices                         frontier of the latest round
//	parconn_cc_round_frontier_vertices                   histogram of round frontiers
//	parconn_cc_round_seconds                             histogram of round wall time
//	parconn_cc_last_components, parconn_cc_last_levels   answer of the last good run
//	parconn_cc_<counter>_total                           arena bytes, pool joins
//
// Phase and counter names are the closed sets obs.PhaseNames and
// obs.CounterNames, all registered up front; events with other names are
// dropped (obs.Validate rejects them). Phases are not split by level: each
// Phase event still carries its Level in a Trace or JSONL stream. The
// position gauges and last-run gauges describe whichever run moved them
// last when several runs share the Recorder. Call RegisterCC once per
// registry: histogram series cannot be registered twice.
func RegisterCC(r *Registry) obs.Recorder {
	c := &ccRecorder{
		runs:           r.Counter("parconn_cc_runs_total", "Connectivity runs finished, failed ones included.", nil),
		runErrors:      r.Counter("parconn_cc_run_errors_total", "Connectivity runs that returned an error.", nil),
		levels:         r.Counter("parconn_cc_levels_total", "Contraction levels completed.", nil),
		rounds:         r.Counter("parconn_cc_rounds_total", "BFS rounds of the decompositions completed.", nil),
		casRetries:     r.Counter("parconn_cc_cas_retries_total", "Lost CAS/writeMin races during decompositions.", nil),
		inFlight:       r.Gauge("parconn_cc_runs_in_flight", "Connectivity runs started and not yet finished.", nil),
		level:          r.Gauge("parconn_cc_level", "Contraction level the engine is at (-1 before the first).", nil),
		round:          r.Gauge("parconn_cc_round", "Latest BFS round of the current level (-1 before the first).", nil),
		frontier:       r.Gauge("parconn_cc_frontier_vertices", "Frontier size of the latest BFS round.", nil),
		lastComponents: r.Gauge("parconn_cc_last_components", "Components found by the last successful run.", nil),
		lastLevels:     r.Gauge("parconn_cc_last_levels", "Contraction levels of the last successful run.", nil),
	}
	for i, name := range obs.CounterNames[:] {
		c.counters[i] = r.Counter("parconn_cc_"+name+"_total", "Engine counter "+name+", summed over runs.", nil)
	}
	r.HistogramNS("parconn_cc_run_seconds", "Wall time of one connectivity run.", nil, &c.runNS)
	for i, name := range obs.PhaseNames[:] {
		r.HistogramNS("parconn_cc_phase_seconds", "Duration of one timed phase section, all levels.", L("phase", name), &c.phaseNS[i])
	}
	r.HistogramNS("parconn_cc_round_seconds", "Wall time of one BFS round.", nil, &c.roundNS)
	r.HistogramFunc("parconn_cc_round_frontier_vertices", "Frontier size of one BFS round.", nil, 1, c.roundVerts.Snapshot)
	c.level.Set(-1)
	c.round.Set(-1)
	return c
}

func (c *ccRecorder) RunStart(obs.RunStart) {
	c.inFlight.Add(1)
	c.runLevels.Store(0)
	c.level.Set(-1)
	c.round.Set(-1)
	c.frontier.Set(0)
}

func (c *ccRecorder) RunEnd(e obs.RunEnd) {
	c.inFlight.Add(-1)
	c.runs.Inc()
	c.runNS.Record(int64(e.Duration))
	if e.Err != "" {
		c.runErrors.Inc()
		return
	}
	c.lastComponents.Set(float64(e.Components))
	c.lastLevels.Set(float64(c.runLevels.Load()))
}

func (c *ccRecorder) LevelStart(e obs.LevelStart) {
	c.level.Set(float64(e.Level))
	c.round.Set(-1)
}

func (c *ccRecorder) LevelEnd(e obs.LevelEnd) {
	// RELABELUP returns through the levels in reverse; report the level the
	// coordinator is actually at.
	c.level.Set(float64(e.Level))
	c.levels.Inc()
	c.runLevels.Add(1)
	if e.CASRetries > 0 {
		c.casRetries.Add(e.CASRetries)
	}
}

func (c *ccRecorder) Round(e obs.Round) {
	c.rounds.Inc()
	c.round.Set(float64(e.Round))
	c.frontier.Set(float64(e.Frontier))
	c.roundVerts.Record(int64(e.Frontier))
	c.roundNS.Record(int64(e.Duration))
}

func (c *ccRecorder) Phase(e obs.Phase) {
	for i, name := range obs.PhaseNames[:] {
		if name == e.Name {
			c.phaseNS[i].Record(int64(e.Duration))
			return
		}
	}
}

func (c *ccRecorder) Counter(e obs.Counter) {
	for i, name := range obs.CounterNames[:] {
		if name == e.Name {
			if e.Value > 0 {
				c.counters[i].Add(e.Value)
			}
			return
		}
	}
}
