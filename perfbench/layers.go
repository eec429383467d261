package main

import (
	"time"

	"parconn"
)

// corePhases are the phases the default algorithm emits, reported one by
// one (summed over levels); any other phase time is still subtracted from
// core.unattributed_s.
var corePhases = []string{"setup", "init", "bfs_pre", "bfs_sparse", "bfs_dense", "filter_edges", "contract"}

// endpoints are the service endpoints whose handler time is reported.
var endpoints = []string{"component", "same", "batch", "insert"}

// layers is everything the traced run measured, per layer.
type layers struct {
	spans      []span
	cc         []ccRun
	fileBytes  int64
	gc         []gcWindow
	validate   time.Duration
	insertUS   float64
	snapshotMS float64
	findNS     float64
}

// add appends every per-layer metric to rep.
func (l *layers) add(rep *report) {
	self := selfTimes(l.spans)
	dur := make(map[string][]float64)    // span name -> durations, ns
	selfOf := make(map[string][]float64) // span name -> self times, ns
	for _, s := range l.spans {
		dur[s.Name] = append(dur[s.Name], float64(s.dur()))
		selfOf[s.Name] = append(selfOf[s.Name], float64(self[s.ID]))
	}
	med := func(name string, scale float64) (float64, int) {
		return median(dur[name]) / scale, len(dur[name])
	}
	addSpan := func(metric, unit, span string, scale float64) {
		v, n := med(span, scale)
		rep.add(metric, unit, v, n, "")
	}

	// graph
	readS, nRead := med("graph.read", 1e9)
	rep.add("graph.read_s", "s", readS, nRead, "")
	rep.add("graph.validate_s", "s", l.validate.Seconds(), 1, "")
	rep.add("graph.read_mb_s", "MB/s", float64(l.fileBytes)/(1<<20)/readS, nRead, "")

	// core
	ccS := make([]float64, len(l.cc))
	unattributed := make([]float64, len(l.cc))
	phase := make(map[string][]float64)
	var levels, cut, out, retries, allocs []float64
	for i, run := range l.cc {
		ccS[i] = run.dur.Seconds()
		sums := make(map[string]time.Duration)
		var total time.Duration
		for _, p := range run.trace.Phases() {
			sums[p.Name] += p.Duration
			total += p.Duration
		}
		for _, name := range corePhases {
			phase[name] = append(phase[name], sums[name].Seconds())
		}
		unattributed[i] = (run.dur - total).Seconds()
		ends := run.trace.LevelEnds()
		var r int64
		for _, e := range ends {
			r += e.CASRetries
		}
		level0 := levelEnd(ends, 0)
		levels = append(levels, float64(len(ends)))
		cut = append(cut, float64(level0.EdgesCut))
		out = append(out, float64(level0.EdgesOut))
		retries = append(retries, float64(r))
		allocs = append(allocs, run.allocMB)
	}
	nCC := len(l.cc)
	rep.add("core.cc_s", "s", median(ccS), nCC, "")
	for _, name := range corePhases {
		rep.add("core.phase."+name+"_s", "s", median(phase[name]), nCC, "summed over levels")
	}
	rep.add("core.unattributed_s", "s", median(unattributed), nCC, "")
	rep.add("core.levels", "count", median(levels), nCC, "")
	rep.add("core.level0_edges_cut", "count", median(cut), nCC, "")
	rep.add("core.level0_edges_out", "count", median(out), nCC, "")
	rep.add("core.cas_retries", "count", median(retries), nCC, "")
	rep.add("core.alloc_mb", "MB", median(allocs), nCC, "TotalAlloc per call")

	// incremental
	addSpan("incremental.seed_s", "s", "incremental.seed", 1e9)
	rep.add("incremental.insert_us", "us", l.insertUS, probeInserts, "direct probe")
	rep.add("incremental.snapshot_ms", "ms", l.snapshotMS, probeSnapshots, "direct probe")
	rep.add("incremental.find_ns", "ns", l.findNS, probeRounds, "direct probe")

	// serve
	addSpan("serve.publish_ms", "ms", "serve.publish", 1e6)
	addSpan("serve.listen_ms", "ms", "serve.listen", 1e6)
	for _, ep := range endpoints {
		addSpan("serve.handler_us."+ep, "us", "serve.handler."+ep, 1e3)
	}
	var transport []float64
	for _, name := range []string{"client.component", "client.same", "client.batch"} {
		transport = append(transport, selfOf[name]...)
	}
	rep.add("serve.transport_us", "us", median(transport)/1e3, len(transport), "read latency minus handler time")

	// setup glue
	addSpan("setup.first_query_ms", "ms", "client.first_query", 1e6)
	rep.add("setup.self_ms", "ms", median(selfOf["setup"])/1e6, len(selfOf["setup"]), "setup time outside every layer call")

	// runtime, summed over the measured loop segments
	var cycles, pauseNS, alloc uint64
	for _, g := range l.gc {
		cycles += uint64(g.after.NumGC - g.before.NumGC)
		pauseNS += g.after.PauseTotalNs - g.before.PauseTotalNs
		alloc += g.after.TotalAlloc - g.before.TotalAlloc
	}
	rep.add("runtime.gc_cycles", "count", float64(cycles), len(l.gc), "")
	rep.add("runtime.gc_pause_ms", "ms", float64(pauseNS)/1e6, len(l.gc), "")
	rep.add("runtime.alloc_mb", "MB", float64(alloc)/(1<<20), len(l.gc), "")
}

// levelEnd returns the LevelEnd event of level, or a zero event.
func levelEnd(ends []parconn.LevelEnd, level int) parconn.LevelEnd {
	for _, e := range ends {
		if e.Level == level {
			return e
		}
	}
	return parconn.LevelEnd{}
}
