// Package core implements the paper's primary contribution: the
// decomposition-based linear-work parallel connectivity algorithm
// (Algorithm 1 of Shun, Dhulipala, Blelloch, SPAA'14).
//
// CC recursively (1) runs a low-diameter decomposition with a constant beta,
// (2) contracts every partition to a single vertex, dropping intra-partition
// and (optionally) duplicate edges, and (3) recurses on the contracted graph
// until no edges remain, relabeling back up on return (RELABELUP). Since
// each decomposition cuts at most a 2*beta fraction of edges in expectation,
// the edge count shrinks geometrically: O(log n) levels and O(m) total work
// in expectation, O(log^3 n) depth w.h.p.
//
// The hot path is engineered to be allocation-free in the steady state:
// scratch buffers come from a workspace.Arena (acquired per level, released
// on the way back up, so level k+1 reuses level k's memory), parallel
// sections run on a persistent worker pool, and every per-level loop body
// is a closure bound once inside a pooled ccMachine (Go's escape analysis
// is path-insensitive, so a closure literal handed to the scheduler would
// otherwise heap-allocate at each of the O(levels) creations).
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"parconn/internal/decomp"
	"parconn/internal/graph"
	"parconn/internal/hashtable"
	"parconn/internal/intsort"
	"parconn/internal/obs"
	"parconn/internal/parallel"
	"parconn/internal/workspace"
)

// DedupMode selects how duplicate edges between contracted components are
// removed before recursing.
type DedupMode int

const (
	// DedupHash removes duplicates with the phase-concurrent hash table
	// (the paper's choice, §4).
	DedupHash DedupMode = iota
	// DedupSort removes duplicates by sorting and compacting.
	DedupSort
	// DedupNone keeps duplicates. The edge count still drops by a constant
	// factor in expectation (the paper notes this ablation explicitly); on
	// most real graphs duplicates are where the bulk of the reduction comes
	// from, so this mode is markedly slower.
	DedupNone
)

// String names the mode for harness output.
func (d DedupMode) String() string {
	switch d {
	case DedupHash:
		return "hash"
	case DedupSort:
		return "sort"
	case DedupNone:
		return "none"
	default:
		return fmt.Sprintf("dedup(%d)", int(d))
	}
}

// Options configures a connectivity run.
type Options struct {
	// Variant selects the decomposition (Min, Arb, ArbHybrid). The zero
	// value is Min; most callers want Arb or ArbHybrid.
	Variant decomp.Variant
	// Beta is the decomposition parameter; zero means 0.2 (within the
	// paper's empirically best 0.05-0.2 band).
	Beta float64
	// Seed drives all randomness; each recursion level derives its own.
	Seed uint64
	// Procs bounds worker parallelism; <= 0 means GOMAXPROCS.
	Procs int
	// DenseFrac is ArbHybrid's dense-round threshold; zero means 20%.
	DenseFrac float64
	// EdgeParallel, when positive, processes edge lists of frontier
	// vertices with at least this degree using nested parallelism (§4's
	// optional high-degree optimization; Arb variant). Zero picks an
	// adaptive cutoff per level from the live edge count (DESIGN.md §12);
	// set it negative to disable nested parallelism entirely.
	EdgeParallel int
	// Dedup selects duplicate-edge removal during contraction.
	Dedup DedupMode
	// Recorder, if non-nil, receives the structured event stream: level
	// start/end, per-round, per-phase, and end-of-run counter events (see
	// internal/obs). With a Recorder attached, decomposition levels also run
	// under pprof labels (parconn_level / parconn_phase) so CPU profiles
	// attribute samples to the recursion structure. nil costs one pointer
	// test per site.
	Recorder obs.Recorder
	// Pool, if non-nil, supplies the worker pool for the run's parallel
	// sections; nil means the shared parallel.Default pool.
	Pool *parallel.Pool
	// Workspace, if non-nil, supplies the scratch arena for per-level
	// buffers; nil means the shared workspace.Default arena.
	Workspace *workspace.Arena
}

// maxLevels is a defensive bound on recursion depth. The expected number of
// levels is O(log m); hitting this bound indicates the edge count stopped
// shrinking, which the geometric-decrease guarantee makes astronomically
// unlikely — treat it as an internal error rather than looping forever.
const maxLevels = 128

// ccMachine carries one CC invocation's scheduler handle, scratch arena,
// per-level working graphs, and the bound closures for the contraction and
// relabel loops. Machines are pooled (machinePool) so repeated CC calls
// reuse both the closures and the decomposition machines; the per-section
// fields below the fold are written only by the coordinating goroutine
// between parallel sections.
type ccMachine struct {
	pool    *parallel.Pool
	ws      *workspace.Arena
	procs   int
	opt     Options
	scratch decomp.Scratch
	// tuner is the run's adaptive scheduler (DESIGN.md §12); it is threaded
	// into every decomposition via Options.Tuner so the contract loops and
	// the BFS rounds share one cost EWMA, which persists across pooled CC
	// calls (machinePool) like the closures do.
	tuner parallel.Tuner

	// levels[k] is level k's working graph (level 0 copies the input, its
	// Offs shared with the caller's graph; deeper levels are arena-backed).
	levels [maxLevels + 1]decomp.WGraph

	// Current-section state for the bound closures.
	w                     *decomp.WGraph
	labels                []int32
	newID                 []int32
	centers               []int32
	offs                  []int64
	pairs                 []uint64
	kbits                 uint
	mask                  uint64
	present, compact, rep []int32
	subOffs               []int64
	subAdj, subDeg        []int32
	subLabels             []int32
	set                   hashtable.Set

	fnIsCenter, fnCenters, fnOffs, fnPairs   func(lo, hi int)
	fnInsert, fnPresent, fnRep               func(lo, hi int)
	fnSubAdj, fnSubDeg, fnRelabel, fnUnseenQ func(lo, hi int)

	// Bound pprof.Do bodies for the recorder path: per-level closure
	// literals would heap-allocate at each of the O(levels) creations, so
	// the arguments flow through the fields below instead.
	dopt                                 decomp.Options
	stepW, stepSub                       *decomp.WGraph
	stepLabels                           []int32
	decompRes                            decomp.Result
	decompErr                            error
	ctRep, ctPresent, ctCompact, ctNewID []int32
	ctEdgesOut                           int64
	ctTiny                               bool
	fnDecompose, fnContract              func(context.Context)
}

// levelLabels precomputes the pprof label values for every possible
// recursion depth so labeling allocates nothing per level.
var levelLabels = func() [maxLevels + 1]string {
	var a [maxLevels + 1]string
	for i := range a {
		a[i] = strconv.Itoa(i)
	}
	return a
}()

// machinePool recycles ccMachines across CC calls; a machine is exclusively
// owned between Get and Put.
var machinePool = sync.Pool{New: func() any { return newCCMachine() }}

func newCCMachine() *ccMachine {
	m := &ccMachine{}
	// Renumber centers to [0, k): newID[center] = rank (after the scan).
	// newID aliases the isCenter flags, which the coordinator zero-fills
	// before this section (arena buffers come back dirty).
	m.fnIsCenter = func(lo, hi int) {
		labels, newID := m.labels, m.newID
		for v := lo; v < hi; v++ {
			if labels[v] == int32(v) {
				newID[v] = 1
			}
		}
	}
	// centers[rank] = center vertex id (inverse of newID on centers).
	m.fnCenters = func(lo, hi int) {
		labels, newID, centers := m.labels, m.newID, m.centers
		for v := lo; v < hi; v++ {
			if labels[v] == int32(v) {
				centers[newID[v]] = int32(v)
			}
		}
	}
	m.fnOffs = func(lo, hi int) {
		w, offs := m.w, m.offs
		for v := lo; v < hi; v++ {
			offs[v] = int64(w.Deg[v])
		}
	}
	// Gather the surviving directed edges as packed (srcComp, tgtComp)
	// pairs in component space. Targets were relabeled to center ids during
	// the decomposition; only the source endpoint needs mapping here (the
	// paper's "we only need to relabel the source endpoint").
	m.fnPairs = func(lo, hi int) {
		w, labels, newID, offs, pairs := m.w, m.labels, m.newID, m.offs, m.pairs
		kbits := m.kbits
		for v := lo; v < hi; v++ {
			src := uint64(uint32(newID[labels[v]])) << kbits
			base := w.Offs[v]
			out := offs[v]
			for i := int64(0); i < int64(w.Deg[v]); i++ {
				tgt := uint64(uint32(newID[w.Adj[base+i]]))
				pairs[out+i] = src | tgt
			}
		}
	}
	m.fnInsert = func(lo, hi int) {
		set, pairs := &m.set, m.pairs
		for i := lo; i < hi; i++ {
			set.Insert(pairs[i])
		}
	}
	// Components that retain at least one edge survive into the recursion;
	// singletons are dropped (their labels are already final). Because the
	// edge set is symmetric, marking sources marks every non-singleton.
	// present is zero-filled by the coordinator before this section.
	m.fnPresent = func(lo, hi int) {
		pairs, present := m.pairs, m.present
		kbits := m.kbits
		for i := lo; i < hi; i++ {
			src := int32(pairs[i] >> kbits)
			if i == 0 || int32(pairs[i-1]>>kbits) != src {
				present[src] = 1
			}
		}
	}
	// rep[j] = the original-vertex center of contracted vertex j.
	m.fnRep = func(lo, hi int) {
		present, compact, rep, centers := m.present, m.compact, m.rep, m.centers
		for c := lo; c < hi; c++ {
			if present[c] != 0 {
				rep[compact[c]] = centers[c]
			}
		}
	}
	// Build the contracted working graph in compacted vertex space. compact
	// is monotone, so remapped pairs stay sorted.
	m.fnSubAdj = func(lo, hi int) {
		pairs, compact, subAdj, subOffs := m.pairs, m.compact, m.subAdj, m.subOffs
		kbits, mask := m.kbits, m.mask
		for i := lo; i < hi; i++ {
			src := compact[pairs[i]>>kbits]
			subAdj[i] = compact[int32(pairs[i]&mask)]
			if i == 0 || int32(pairs[i-1]>>kbits) != int32(pairs[i]>>kbits) {
				subOffs[src] = int64(i)
			}
		}
	}
	m.fnSubDeg = func(lo, hi int) {
		subOffs, subDeg := m.subOffs, m.subDeg
		for v := lo; v < hi; v++ {
			subDeg[v] = int32(subOffs[v+1] - subOffs[v])
		}
	}
	// RELABELUP — map each vertex's component through the recursive
	// labeling and back to a canonical vertex of this level. Singleton
	// components keep their center label (paper: "singleton vertices are
	// removed, but their labels are kept").
	m.fnRelabel = func(lo, hi int) {
		labels, newID, present, compact, rep, subLabels :=
			m.labels, m.newID, m.present, m.compact, m.rep, m.subLabels
		for v := lo; v < hi; v++ {
			c := newID[labels[v]]
			if present[c] != 0 {
				labels[v] = rep[subLabels[compact[c]]]
			}
		}
	}
	m.fnDecompose = func(context.Context) {
		m.decompRes, m.decompErr = decomp.Decompose(m.stepW, m.opt.Variant, m.dopt)
	}
	m.fnContract = func(context.Context) {
		if m.ctTiny {
			m.ctRep, m.ctPresent, m.ctCompact, m.ctNewID, m.ctEdgesOut =
				m.contractSerial(m.stepW, m.stepSub, m.stepLabels)
		} else {
			m.ctRep, m.ctPresent, m.ctCompact, m.ctNewID, m.ctEdgesOut =
				m.contract(m.stepW, m.stepSub, m.stepLabels)
		}
	}
	return m
}

// reset drops all per-call references so a pooled machine retains nothing
// (slices, option pointers) between CC calls.
func (m *ccMachine) reset() {
	m.pool, m.ws, m.opt = nil, nil, Options{}
	m.w, m.labels, m.newID, m.centers = nil, nil, nil, nil
	m.offs, m.pairs = nil, nil
	m.present, m.compact, m.rep = nil, nil, nil
	m.subOffs, m.subAdj, m.subDeg, m.subLabels = nil, nil, nil, nil
	m.dopt = decomp.Options{}
	m.stepW, m.stepSub, m.stepLabels = nil, nil, nil
	m.decompRes, m.decompErr = decomp.Result{}, nil
	m.ctRep, m.ctPresent, m.ctCompact, m.ctNewID = nil, nil, nil, nil
	m.ctTiny = false
}

// CC computes a connected-components labeling of g. The returned labeling
// assigns every vertex the id of a canonical vertex of its component, so
// labels[v] == labels[u] iff u and v are connected, and labels[labels[v]] ==
// labels[v].
func CC(g *graph.Graph, opt Options) ([]int32, error) {
	opt.Procs = parallel.Procs(opt.Procs)
	if opt.Beta == 0 {
		opt.Beta = 0.2
	}
	// Negated comparison so NaN (which fails every ordered comparison) is
	// rejected rather than waved through into the shift computation.
	if !(opt.Beta > 0 && opt.Beta < 1) {
		return nil, fmt.Errorf("core: beta %v out of (0,1)", opt.Beta)
	}
	// The setup stopwatch opens before the machine is acquired so a cold
	// pool miss (closure binding, levels array) is charged to a phase
	// rather than silently widening the wall-vs-phases gap.
	tSetup := now()
	m := machinePool.Get().(*ccMachine)
	m.opt = opt
	// Procs is a bound; the tuner narrows it to the physical CPU count
	// (oversubscribed workers only add preemption; DESIGN.md §12).
	m.procs = m.tuner.Workers(opt.Procs)
	m.pool = opt.Pool
	if m.pool == nil {
		m.pool = parallel.Default()
	}
	m.ws = opt.Workspace
	if m.ws == nil {
		m.ws = workspace.Default()
	}
	rec := opt.Recorder
	var joins0, reused0, alloc0 int64
	if rec != nil {
		joins0 = m.pool.Joins()
		reused0, alloc0 = m.ws.Stats()
	}
	w := &m.levels[0]
	w.InitFrom(m.ws, g, m.procs)
	if rec != nil {
		rec.Phase(obs.Phase{Level: 0, Name: obs.PhaseSetup, Duration: time.Since(tSetup)})
	}
	labels, err := m.ccLevel(w, 0, int64(len(w.Adj)))
	if rec != nil {
		reused1, alloc1 := m.ws.Stats()
		rec.Counter(obs.Counter{Name: obs.CounterArenaReused, Value: reused1 - reused0})
		rec.Counter(obs.Counter{Name: obs.CounterArenaAlloc, Value: alloc1 - alloc0})
		rec.Counter(obs.Counter{Name: obs.CounterPoolJoins, Value: m.pool.Joins() - joins0})
	}
	// The level-0 Offs belong to the caller's graph; only the working
	// copy's Adj/Deg go back to the arena.
	m.ws.PutInt32(w.Adj)
	m.ws.PutInt32(w.Deg)
	*w = decomp.WGraph{}
	m.reset()
	machinePool.Put(m)
	return labels, err
}

// ccLevel runs one level of Algorithm 1 on the working graph w — which
// enters with edges live directed edges (level 0 passes the input size,
// deeper levels the parent contraction's exact output count, so no
// per-level edge reduction is ever needed) — and returns labels in w's
// vertex space (values are canonical w-vertices). The labels slice is
// arena-acquired; ownership passes to the caller (released after the
// parent level's RELABELUP, or handed to the user at level 0).
//
// The directive below roots the hotalloc analysis: everything reachable
// from here is the per-level steady state that must stay allocation-free.
//
//parconn:hotpath
func (m *ccMachine) ccLevel(w *decomp.WGraph, level int, edges int64) ([]int32, error) {
	if level >= maxLevels {
		return nil, fmt.Errorf("core: recursion exceeded %d levels; edge count is not decreasing", maxLevels)
	}
	if w.N == 0 {
		//parconn:allow hotalloc empty-graph base case; a zero-length literal is the zerobase pointer, not a heap block
		return []int32{}, nil
	}
	procs := m.procs
	rec := m.opt.Recorder
	// Tiny-level fast path (DESIGN.md §12): below the tuner's threshold the
	// whole level — decomposition rounds and contraction — runs with one
	// worker; the late levels are a long tail of sub-millisecond graphs
	// whose parallel sections would be pure fork/join overhead.
	tiny := m.tuner.SerialLevel(w.N, edges)
	if tiny {
		procs = 1
	}

	// Step 1: decompose. Each level derives an independent seed so repeated
	// decompositions do not reuse the same permutation. With a recorder
	// attached the level opens with its entering sizes and the
	// decomposition runs under pprof labels.
	dopt := decomp.Options{
		Beta:         m.opt.Beta,
		Seed:         m.opt.Seed + uint64(level)*0x9e3779b97f4a7c15,
		Procs:        procs,
		DenseFrac:    m.opt.DenseFrac,
		EdgeParallel: m.opt.EdgeParallel,
		Recorder:     rec,
		Level:        level,
		Pool:         m.pool,
		Workspace:    m.ws,
		Scratch:      &m.scratch,
		Tuner:        &m.tuner,
	}
	var res decomp.Result
	var err error
	if rec == nil {
		res, err = decomp.Decompose(w, m.opt.Variant, dopt)
	} else {
		rec.LevelStart(obs.LevelStart{Level: level, Vertices: w.N, EdgesIn: edges})
		m.stepW, m.dopt = w, dopt
		pprof.Do(context.Background(),
			pprof.Labels("parconn_level", levelLabels[level], "parconn_phase", "decompose"),
			m.fnDecompose)
		res, err = m.decompRes, m.decompErr
		m.stepW, m.decompRes, m.decompErr = nil, decomp.Result{}, nil
	}
	if err != nil {
		return nil, err
	}
	labels := res.Labels // labels[v] = center id owning v

	// The machines accumulate the surviving inter-component edge count in
	// their final classification passes, so the base-case test costs
	// nothing (the paper's |E'| = 0 check; LiveEdges would be an extra
	// O(n) reduction here).
	cut := res.EdgesOut
	end := obs.LevelEnd{
		Level:      level,
		Vertices:   w.N,
		EdgesIn:    edges,
		EdgesCut:   cut,
		Components: res.NumCenters,
		Rounds:     res.Rounds,
		CASRetries: res.CASRetries,
	}
	if cut == 0 {
		// Base case (|E'| == 0): every component was swallowed by a single
		// ball; the decomposition labels are the final labels.
		if rec != nil {
			rec.LevelEnd(end)
		}
		return labels, nil
	}

	// Step 2: contract (timed as the paper's "contractGraph" phase; under
	// pprof labels on the recorder path, via the bound closure).
	tCt := now()
	sub := &m.levels[level+1]
	var rep, present, compact, newID []int32
	var edgesOut int64
	if rec == nil {
		if tiny {
			rep, present, compact, newID, edgesOut = m.contractSerial(w, sub, labels)
		} else {
			rep, present, compact, newID, edgesOut = m.contract(w, sub, labels)
		}
	} else {
		m.ctTiny = tiny
		m.stepW, m.stepSub, m.stepLabels = w, sub, labels
		pprof.Do(context.Background(),
			pprof.Labels("parconn_level", levelLabels[level], "parconn_phase", "contract"),
			m.fnContract)
		rep, present, compact, newID, edgesOut = m.ctRep, m.ctPresent, m.ctCompact, m.ctNewID, m.ctEdgesOut
		m.stepW, m.stepSub, m.stepLabels = nil, nil, nil
		m.ctRep, m.ctPresent, m.ctCompact, m.ctNewID = nil, nil, nil, nil
		m.ctTiny = false
	}
	ctDur := time.Since(tCt)
	if rec != nil {
		end.EdgesOut = edgesOut
		rec.LevelEnd(end)
	}

	// Step 3: recurse on the contracted graph. edgesOut is exact (post
	// dedup, len(sub.Adj)), so the child never re-measures.
	subLabels, err := m.ccLevel(sub, level+1, edgesOut)
	if err != nil {
		return nil, err
	}
	// The sub-graph is fully consumed (the recursion destroyed its edges
	// and its labels are in hand); all three arrays are arena-backed.
	m.ws.PutInt64(sub.Offs)
	m.ws.PutInt32(sub.Adj)
	m.ws.PutInt32(sub.Deg)
	*sub = decomp.WGraph{}

	// Step 4: RELABELUP through the bound closure; the coordinator re-aims
	// the machine fields at this level's arrays (they sat in locals across
	// the recursive call, which reused the fields for deeper levels).
	// Relabeling is charged to this level's contract phase, so the Phase
	// event lands after the deeper levels' events — sinks accumulate by
	// (level, name), not by arrival order.
	tRl := now()
	m.labels, m.newID, m.present, m.compact, m.rep, m.subLabels =
		labels, newID, present, compact, rep, subLabels
	m.pool.Blocks(procs, w.N, 0, m.fnRelabel)
	if rec != nil {
		rec.Phase(obs.Phase{Level: level, Name: obs.PhaseContract, Duration: ctDur + time.Since(tRl)})
	}

	m.ws.PutInt32(newID)
	m.ws.PutInt32(present)
	m.ws.PutInt32(compact)
	m.ws.PutInt32(rep)
	m.ws.PutInt32(subLabels)
	m.labels, m.newID, m.present, m.compact, m.rep, m.subLabels = nil, nil, nil, nil, nil, nil
	return labels, nil
}

// contract builds the next-level working graph into sub: components become
// vertices, intra-component edges are already gone, duplicate
// inter-component edges are removed per opt.Dedup, and singleton components
// (no remaining edges) are dropped. It returns the representative original
// vertex of each contracted vertex (rep), the present/compact component
// mappings, the center renumbering newID, and the directed edge count of
// the contracted graph — all arena-acquired; the caller releases them after
// RELABELUP. Scratch internal to one step (offs, pairs, hash slots, sort
// buffer, centers) is released before returning, so the recursion below
// immediately reuses it.
//
//parconn:allow scratchlifetime ownership transfers by contract: the machine fields are aliases ccLevel clears after RELABELUP, and sub plus the returned buffers are released by the caller's level epilogue
func (m *ccMachine) contract(w *decomp.WGraph, sub *decomp.WGraph, labels []int32) (rep, present, compact, newID []int32, edgesOut int64) {
	procs, ws, pool := m.procs, m.ws, m.pool
	n := w.N
	m.w, m.labels = w, labels

	isCenter := ws.Int32(n)
	parallel.Fill(procs, isCenter, 0)
	m.newID = isCenter
	pool.Blocks(procs, n, 0, m.fnIsCenter)
	k := int(parallel.ExScan(procs, isCenter))
	newID = isCenter // after the scan, isCenter[v] is the rank for centers
	centers := ws.Int32(k)
	m.centers = centers
	pool.Blocks(procs, n, 0, m.fnCenters)

	offs := ws.Int64(n)
	m.offs = offs
	pool.Blocks(procs, n, 0, m.fnOffs)
	total := parallel.ExScan(procs, offs)
	kbits := uint(intsort.Bits(uint64(max(1, int64(k)-1))))
	m.kbits = kbits
	m.mask = uint64(1)<<kbits - 1
	pairs := ws.Uint64(int(total))
	m.pairs = pairs
	pool.Blocks(procs, n, parallel.FrontierGrain, m.fnPairs)
	ws.PutInt64(offs)
	m.offs = nil

	// Deduplicate and sort. Every path ends with pairs sorted by
	// (src, tgt), which the CSR build below requires.
	switch m.opt.Dedup {
	case DedupHash:
		// Hash dedup first so the integer sort only handles unique edges.
		slots := ws.Uint64(hashtable.SizeFor(len(pairs)))
		m.set.Reset(procs, slots)
		pool.Blocks(procs, len(pairs), 0, m.fnInsert)
		uniq := ws.Uint64(m.set.Len())
		m.set.ElementsInto(procs, uniq)
		m.set.Drop()
		ws.PutUint64(slots)
		ws.PutUint64(pairs)
		pairs = uniq
		m.pairs = pairs
		scratch := ws.Uint64(len(pairs))
		intsort.SortUint64In(procs, pairs, int(2*kbits), scratch)
		ws.PutUint64(scratch)
	case DedupSort:
		scratch := ws.Uint64(len(pairs))
		intsort.SortUint64In(procs, pairs, int(2*kbits), scratch)
		// scratch doubles as the compaction target (the sort is done with
		// it); the duplicate-heavy original goes back to the arena.
		//parconn:allow hotalloc one dedup-predicate closure per sort-path section, inside the steady-state budget
		nuniq := parallel.PackInto(procs, scratch, pairs, func(i int) bool {
			return i == 0 || pairs[i] != pairs[i-1]
		})
		ws.PutUint64(pairs)
		pairs = scratch[:nuniq]
		m.pairs = pairs
	case DedupNone:
		scratch := ws.Uint64(len(pairs))
		intsort.SortUint64In(procs, pairs, int(2*kbits), scratch)
		ws.PutUint64(scratch)
	}
	edgesOut = int64(len(pairs))

	present = ws.Int32(k)
	parallel.Fill(procs, present, 0)
	m.present = present
	pool.Blocks(procs, len(pairs), 0, m.fnPresent)
	compact = ws.Int32(k)
	parallel.Copy(procs, compact, present)
	kPrime := int(parallel.ExScan(procs, compact))
	m.compact = compact

	rep = ws.Int32(kPrime)
	m.rep = rep
	pool.Blocks(procs, k, 0, m.fnRep)
	ws.PutInt32(centers)
	m.centers = nil

	subOffs := ws.Int64(kPrime + 1)
	parallel.Fill(procs, subOffs, -1)
	subOffs[kPrime] = int64(len(pairs))
	subAdj := ws.Int32(len(pairs))
	m.subOffs, m.subAdj = subOffs, subAdj
	pool.Blocks(procs, len(pairs), 0, m.fnSubAdj)
	for v := kPrime - 1; v >= 0; v-- {
		if subOffs[v] < 0 {
			subOffs[v] = subOffs[v+1]
		}
	}
	subDeg := ws.Int32(kPrime)
	m.subDeg = subDeg
	pool.Blocks(procs, kPrime, 0, m.fnSubDeg)
	ws.PutUint64(pairs)
	m.pairs = nil

	*sub = decomp.WGraph{N: kPrime, Offs: subOffs, Adj: subAdj, Deg: subDeg}
	m.w, m.subOffs, m.subAdj, m.subDeg = nil, nil, nil, nil
	return rep, present, compact, newID, edgesOut
}

// contractSerial is contract's tiny-level twin (DESIGN.md §12): the same
// component renumbering, dedup, and CSR build, but single-threaded plain
// loops with no worker-pool sections, no sharded counters, and a
// comparison sort in place of the radix sort — below the tuner's
// SerialLevel threshold the fork/join and scan passes of the parallel
// version cost more than the work itself. Duplicate removal is a
// sort-then-compact for both DedupHash and DedupSort (they agree on the
// output: the sorted unique pair set), so the hash table is never touched.
// Returns and releases exactly what contract does.
//
//parconn:allow scratchlifetime ownership transfers by contract: sub plus the returned buffers are released by the caller's level epilogue
func (m *ccMachine) contractSerial(w *decomp.WGraph, sub *decomp.WGraph, labels []int32) (rep, present, compact, newID []int32, edgesOut int64) {
	ws := m.ws
	n := w.N

	// Renumber centers to [0, k) and record the inverse. newID slots of
	// non-centers are never read (relabel indexes it at labels[v], a
	// center), but arena buffers come back dirty, so zero them anyway.
	newID = ws.Int32(n)
	k := 0
	for v := 0; v < n; v++ {
		if labels[v] == int32(v) {
			k++
		}
	}
	centers := ws.Int32(k)
	id := int32(0)
	for v := 0; v < n; v++ {
		if labels[v] == int32(v) {
			newID[v] = id
			centers[id] = int32(v)
			id++
		} else {
			newID[v] = 0
		}
	}

	// Gather surviving directed edges as packed (srcComp, tgtComp) pairs;
	// targets were already relabeled to center ids by the decomposition.
	var total int64
	for v := 0; v < n; v++ {
		total += int64(w.Deg[v])
	}
	kbits := uint(intsort.Bits(uint64(max(1, int64(k)-1))))
	mask := uint64(1)<<kbits - 1
	pairs := ws.Uint64(int(total))
	out := 0
	for v := 0; v < n; v++ {
		src := uint64(uint32(newID[labels[v]])) << kbits
		base := w.Offs[v]
		for i := int64(0); i < int64(w.Deg[v]); i++ {
			pairs[out] = src | uint64(uint32(newID[w.Adj[base+i]]))
			out++
		}
	}
	slices.Sort(pairs)
	if m.opt.Dedup != DedupNone {
		u := 0
		for i := range pairs {
			if i == 0 || pairs[i] != pairs[i-1] {
				pairs[u] = pairs[i]
				u++
			}
		}
		pairs = pairs[:u]
	}
	edgesOut = int64(len(pairs))

	// Components with a surviving edge stay; singletons are dropped.
	// compact is the exclusive scan of present (matching ExScan in the
	// parallel version).
	present = ws.Int32(k)
	for c := range present {
		present[c] = 0
	}
	for i := range pairs {
		present[int32(pairs[i]>>kbits)] = 1
	}
	compact = ws.Int32(k)
	kPrime := 0
	for c := 0; c < k; c++ {
		compact[c] = int32(kPrime)
		if present[c] != 0 {
			kPrime++
		}
	}
	rep = ws.Int32(kPrime)
	for c := 0; c < k; c++ {
		if present[c] != 0 {
			rep[compact[c]] = centers[c]
		}
	}
	ws.PutInt32(centers)

	// CSR build in compacted vertex space; pairs are sorted by (src, tgt),
	// so first-of-source marks the offset and a backward sweep fills gaps.
	subOffs := ws.Int64(kPrime + 1)
	for v := range subOffs {
		subOffs[v] = -1
	}
	subOffs[kPrime] = int64(len(pairs))
	subAdj := ws.Int32(len(pairs))
	for i := range pairs {
		src := compact[pairs[i]>>kbits]
		subAdj[i] = compact[int32(pairs[i]&mask)]
		if i == 0 || int32(pairs[i-1]>>kbits) != int32(pairs[i]>>kbits) {
			subOffs[src] = int64(i)
		}
	}
	for v := kPrime - 1; v >= 0; v-- {
		if subOffs[v] < 0 {
			subOffs[v] = subOffs[v+1]
		}
	}
	subDeg := ws.Int32(kPrime)
	for v := 0; v < kPrime; v++ {
		subDeg[v] = int32(subOffs[v+1] - subOffs[v])
	}
	ws.PutUint64(pairs)

	*sub = decomp.WGraph{N: kPrime, Offs: subOffs, Adj: subAdj, Deg: subDeg}
	return rep, present, compact, newID, edgesOut
}
