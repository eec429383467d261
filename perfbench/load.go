package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"parconn"
)

// The read mix runs as a fixed cycle of readCycle reads, so every stretch
// of a run has the same mix: componentReads /v1/component, sameReads
// /v1/same, and the rest /v1/batch requests of batchPairs pairs (80%, 15%,
// 5%). Only the vertices are random.
const (
	readCycle      = 20
	componentReads = 16
	sameReads      = 3
	batchPairs     = 64
	insertEdges    = 32
)

// loopConfig describes one closed loop: each client sends its next request
// only after the previous one answered.
type loopConfig struct {
	clients     int
	warmup      time.Duration // run before the window; nothing in it is measured
	window      time.Duration
	slices      int // the window is cut into this many equal slices; 0 is 1
	minOps      int // extend the window until this many operations were measured
	insertEvery int // every insertEvery-th operation is an insert batch; 0 for none
	seed        uint64
	// With a tracer, operations started in [traceFrom, traceUntil) of the
	// window are traced.
	traceFrom, traceUntil time.Duration
}

// clientStats is what one client saw. Latencies are for operations started
// inside the window, by the slice they started in (an operation started past
// the window's end counts in the last slice); failed operations are recorded
// as failedLatency. Traced reads are kept apart, in one set.
type clientStats struct {
	reads, inserts    sliced
	readsTraced       latencies
	attempted, failed int
	batches           [][]parconn.Edge // insert batches the service accepted
	uncertain         [][]parconn.Edge // insert batches whose request failed
	deferred          []parconn.Edge   // pairs answered connected that only inserts can connect
}

// checker holds the reference answers. With strict set no insert can have
// happened, so every answer must match the base oracle exactly; otherwise a
// pair the base graph connects must stay connected, and a pair answered
// connected that the base graph does not connect is deferred to the final
// check against the base plus every inserted edge.
type checker struct {
	root    []int32
	strict  bool
	labelOf map[int32]int32 // oracle root -> label seen (strict only)
}

func (k *checker) component(v, l int32, st *clientStats) error {
	if l < 0 || int(l) >= len(k.root) {
		return wrongf("vertex %d has component label %d, not a vertex id", v, l)
	}
	r := k.root[v]
	if k.root[l] != r {
		if k.strict {
			return wrongf("vertex %d labelled %d, which the oracle puts in another component", v, l)
		}
		st.deferred = append(st.deferred, parconn.Edge{U: v, V: l})
		return nil
	}
	if k.strict {
		if seen, ok := k.labelOf[r]; ok && seen != l {
			return wrongf("oracle component %d answered as labels %d and %d", r, seen, l)
		}
		k.labelOf[r] = l
	}
	return nil
}

func (k *checker) same(u, v int32, answer bool, st *clientStats) error {
	base := k.root[u] == k.root[v]
	switch {
	case base && !answer:
		return wrongf("connected pair (%d,%d) answered as split", u, v)
	case !base && answer && k.strict:
		return wrongf("pair (%d,%d) answered connected, oracle disagrees", u, v)
	case !base && answer:
		st.deferred = append(st.deferred, parconn.Edge{U: u, V: v})
	}
	return nil
}

// randomPairs fills out with uniform vertex pairs; with distinct set, the
// two ends of each pair differ.
func randomPairs(r *splitmix, n int, out []parconn.Edge, distinct bool) {
	for i := range out {
		u, v := r.vertex(n), r.vertex(n)
		for distinct && u == v {
			v = r.vertex(n)
		}
		out[i] = parconn.Edge{U: u, V: v}
	}
}

// runLoop drives the service at url with cfg.clients closed-loop clients,
// each on its own keep-alive connection, and checks every answer. The
// first wrong answer stops every client and is returned.
func runLoop(url string, n int, cfg loopConfig, base checker, tr *tracer) ([]*clientStats, error) {
	stats := make([]*clientStats, cfg.clients)
	errs := make([]error, cfg.clients)
	var stop atomic.Bool
	start := now()
	windowStart := start.Add(cfg.warmup)
	windowEnd := windowStart.Add(cfg.window)
	slices := max(cfg.slices, 1)
	var wg sync.WaitGroup
	wg.Add(cfg.clients)
	for i := range stats {
		st := &clientStats{reads: make(sliced, slices), inserts: make(sliced, slices)}
		stats[i] = st
		k := base
		k.labelOf = make(map[int32]int32)
		go func(i int) {
			defer wg.Done()
			c := newClient(url, nil)
			defer c.close()
			r := splitmix{s: cfg.seed ^ uint64(i+1)*0xa0761d6478bd642f}
			pairs := make([]parconn.Edge, batchPairs)
			// Clients start at different points of the cycles, so they do
			// not insert or batch in step.
			ops, reads := i, i*readCycle/cfg.clients
			for ; !stop.Load(); ops++ {
				t := now()
				if !t.Before(windowEnd) && st.attempted >= cfg.minOps {
					return
				}
				measured := !t.Before(windowStart)
				off := t.Sub(windowStart)
				traced := tr != nil && off >= cfg.traceFrom && off < cfg.traceUntil
				c.tr = nil
				var trace uint64
				if traced {
					c.tr, trace = tr, tr.newID()
				}
				slice := min(int(off*time.Duration(slices)/cfg.window), slices-1)
				var ok bool
				var err error
				var lats *latencies
				if cfg.insertEvery > 0 && ops%cfg.insertEvery == 0 {
					lats = &st.inserts[max(slice, 0)]
					edges := make([]parconn.Edge, insertEdges)
					randomPairs(&r, n, edges, true)
					ok, err = insertOp(c, edges, trace, st)
				} else {
					lats = &st.reads[max(slice, 0)]
					if traced {
						lats = &st.readsTraced
					}
					ok, err = readOp(c, &r, n, reads%readCycle, pairs, trace, &k, st)
					reads++
				}
				lat := time.Since(t).Nanoseconds()
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
				if !measured {
					continue
				}
				st.attempted++
				if !ok {
					st.failed++
					lat = failedLatency
				}
				*lats = append(*lats, lat)
			}
		}(i)
	}
	wg.Wait()
	return stats, errors.Join(errs...)
}

// readOp sends the read at position slot of the read cycle.
func readOp(c *client, r *splitmix, n int, slot int, pairs []parconn.Edge, trace uint64, k *checker, st *clientStats) (bool, error) {
	switch {
	case slot < componentReads:
		v := r.vertex(n)
		ok, l, err := c.component(v, trace, 0, "client.component")
		if !ok || err != nil {
			return ok, err
		}
		return true, k.component(v, l, st)
	case slot < componentReads+sameReads:
		u, v := r.vertex(n), r.vertex(n)
		ok, same, err := c.same(u, v, trace, 0, "client.same")
		if !ok || err != nil {
			return ok, err
		}
		return true, k.same(u, v, same, st)
	default:
		randomPairs(r, n, pairs, false)
		ok, same, err := c.batch(pairs, trace, 0, "client.batch")
		if !ok || err != nil {
			return ok, err
		}
		for i, p := range pairs {
			if err := k.same(p.U, p.V, same[i], st); err != nil {
				return true, err
			}
		}
		return true, nil
	}
}

// insertOp inserts one batch and then reads one of its edges back: the
// operation completes when the service answers that the edge's ends are
// connected, which it must (read-your-writes).
func insertOp(c *client, edges []parconn.Edge, trace uint64, st *clientStats) (bool, error) {
	root := c.tr.open("op.insert", trace, 0)
	defer c.tr.finish(root)
	ok, err := c.insert(edges, trace, root.ID, "client.insert")
	if err != nil {
		return false, err
	}
	if !ok {
		st.uncertain = append(st.uncertain, edges)
		return false, nil
	}
	st.batches = append(st.batches, edges)
	e := edges[len(st.batches)%len(edges)]
	ok, same, err := c.same(e.U, e.V, trace, root.ID, "client.ryw")
	if !ok || err != nil {
		return ok, err
	}
	if !same {
		return true, wrongf("inserted edge (%d,%d) read back as split (read-your-writes)", e.U, e.V)
	}
	return true, nil
}

// finalCheck asks the service for its component count and checks it, and
// every deferred answer, against the base graph plus every inserted batch.
// A batch whose request failed may or may not have been applied, so it
// widens the accepted range.
func finalCheck(url string, base *oracle, stats []*clientStats) error {
	applied := base.clone()
	for _, st := range stats {
		for _, b := range st.batches {
			applied.add(b)
		}
	}
	maybe := applied.clone()
	for _, st := range stats {
		for _, b := range st.uncertain {
			maybe.add(b)
		}
	}
	c := newClient(url, nil)
	defer c.close()
	ok, got, err := c.components()
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("final /v1/stats request failed")
	}
	if lo, hi := maybe.components(), applied.components(); got < lo || got > hi {
		return wrongf("/v1/stats reports %d components, oracle over base and inserted edges has %d", got, hi)
	}
	for _, st := range stats {
		for _, p := range st.deferred {
			if maybe.find(p.U) != maybe.find(p.V) {
				return wrongf("pair (%d,%d) was answered connected, but no inserted edge connects it", p.U, p.V)
			}
		}
	}
	return nil
}
