package main

import "fmt"

// workload is one input plus one traffic mix. Every workload runs the same
// rounds — setup, recompute, closed loop, insert probe — so every metric
// exists on every workload; the input and the mix decide which layer
// dominates.
type workload struct {
	name       string
	scale      int  // 2^scale vertices
	edgeFactor int  // generated edges per vertex, before deduplication
	text       bool // AdjacencyGraph text file; otherwise PCONNGR1 binary
	rounds     int  // rounds per run
	setups     int  // setups per round, back to back; setup_s is the median of all
	// recomputes per run, spread evenly over the rounds, so the repeats of
	// one cc seed fall in different rounds; recompute_s is the median of all
	recomputes int
	// insertEvery makes every insertEvery-th closed-loop operation a 32-edge
	// insert batch. With none (0), inserts are measured by a short
	// insert-only probe after the loop instead.
	insertEvery int
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	// Setup is mostly text parsing and validation.
	{name: "rmat-text-ingest", scale: 19, edgeFactor: 5, text: true, rounds: 3, setups: 1, recomputes: 10},
	// The com-Orkut stand-in under a read-only mix: the control for writes.
	{name: "social-read", scale: 18, edgeFactor: 38, rounds: 5, setups: 4, recomputes: 20},
	// The same server with the incremental write path under load.
	{name: "social-churn", scale: 18, edgeFactor: 38, rounds: 5, setups: 4, recomputes: 20, insertEvery: 4},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputName is the file name of the workload's input.
func (w workload) inputName() string {
	if w.text {
		return w.name + ".adj"
	}
	return w.name + ".bin"
}
