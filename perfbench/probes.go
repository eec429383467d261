package main

import (
	"bufio"
	"os"
	"time"

	"parconn"
	"parconn/internal/graph"
)

// Direct probes time one layer's public call in isolation, on the same data
// the service holds. They run only in the traced run.

const (
	probeInserts   = 200     // 32-edge Insert calls timed
	probeSnapshots = 20      // Snapshot calls timed, each after one Insert
	probeFinds     = 1 << 18 // Find calls per timed round
	probeRounds    = 5
)

// findSink keeps the timed Find loop from being optimized away.
var findSink int32

// incrementalProbe times Insert, Snapshot, and Find on a fresh Incremental
// seeded from a copy of the service's labeling.
func incrementalProbe(labels []int32, seed uint64) (insertUS, snapshotMS, findNS float64, err error) {
	inc, err := parconn.NewIncrementalFromLabels(append([]int32(nil), labels...))
	if err != nil {
		return 0, 0, 0, err
	}
	n := len(labels)
	r := splitmix{s: seed ^ 0x5bd1e9955bd1e995}
	batch := make([]parconn.Edge, insertEdges)
	var ins, snaps, finds []float64
	for i := 0; i < probeInserts+probeSnapshots; i++ {
		randomPairs(&r, n, batch, true)
		t := now()
		if _, err := inc.Insert(batch); err != nil {
			return 0, 0, 0, err
		}
		d := time.Since(t)
		if i < probeInserts {
			ins = append(ins, float64(d.Nanoseconds())/1e3)
			continue
		}
		t = now()
		inc.Snapshot()
		snaps = append(snaps, float64(time.Since(t).Nanoseconds())/1e6)
	}
	vs := make([]int32, probeFinds)
	for round := 0; round < probeRounds; round++ {
		for i := range vs {
			vs[i] = r.vertex(n)
		}
		t := now()
		var sink int32
		for _, v := range vs {
			sink ^= inc.Find(v)
		}
		finds = append(finds, float64(time.Since(t).Nanoseconds())/probeFinds)
		findSink = sink
	}
	return median(ins), median(snaps), median(finds), nil
}

// validateProbe times the graph package's exported validation check, the
// step parconn.ReadGraph runs after parsing, as its own call.
func validateProbe(path string, text bool) (time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var g *graph.Graph
	if text {
		g, err = graph.ReadFrom(br)
	} else {
		g, err = graph.ReadBinary(br)
	}
	if err != nil {
		return 0, err
	}
	t := now()
	err = g.Validate()
	return time.Since(t), err
}
