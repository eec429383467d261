package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"parconn"
)

// R-MAT quadrant probabilities (a, b, c; d = 1 − a − b − c), the Graph500
// and PBBS setting.
const rmatA, rmatB, rmatC = 0.57, 0.19, 0.19

// rmatBlock is the number of edges drawn from one random stream. Each block
// is seeded from (seed, block index) alone, so the edge list does not depend
// on how many goroutines generate it.
const rmatBlock = 1 << 16

// splitmix is the SplitMix64 generator: small, fast, and fully determined by
// its seed.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// vertex returns a uniform vertex id in [0, n); n must be below 2^31.
func (r *splitmix) vertex(n int) int32 {
	return int32((r.next() >> 33) * uint64(n) >> 31)
}

// rmatEdges draws edgeFactor·2^scale edges of an R-MAT graph on 2^scale
// vertices. Self-loops and duplicates are kept; parconn.NewGraph
// drops them.
func rmatEdges(scale, edgeFactor int, seed uint64) []parconn.Edge {
	edges := make([]parconn.Edge, edgeFactor<<scale)
	// Draws are 53-bit uniforms compared against probabilities scaled to 2^53.
	threshold := func(p float64) uint64 { return uint64(p * (1 << 53)) }
	ta, tb, tc := threshold(rmatA), threshold(rmatA+rmatB), threshold(rmatA+rmatB+rmatC)
	blocks := (len(edges) + rmatBlock - 1) / rmatBlock
	workers := min(runtime.GOMAXPROCS(0), blocks)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for b := w; b < blocks; b += workers {
				r := splitmix{s: seed ^ (uint64(b)+1)*0xd1b54a32d192ed03}
				for i := b * rmatBlock; i < min((b+1)*rmatBlock, len(edges)); i++ {
					var u, v int32
					for level := 0; level < scale; level++ {
						x := r.next() >> 11
						u, v = u<<1, v<<1
						switch {
						case x < ta:
						case x < tb:
							v |= 1
						case x < tc:
							u |= 1
						default:
							u, v = u|1, v|1
						}
					}
					edges[i] = parconn.Edge{U: u, V: v}
				}
			}
		}(w)
	}
	wg.Wait()
	return edges
}

// fingerprint identifies one generated input file.
type fingerprint struct {
	N      int    `json:"n"`
	M      int64  `json:"m"` // undirected edges after deduplication
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// pins fix each workload's graph: it is generated from GraphSeed, and every
// run checks the file it wrote against the fingerprint recorded here. The
// k-th setup or recompute of a run labels with CCSeeds[k], so every run
// samples the same random draws of ConnectedComponents. The run's --seed
// drives everything the service receives at run time instead.
type pins struct {
	GraphSeed uint64                 `json:"graph_seed"`
	CCSeeds   []uint64               `json:"cc_seeds"`
	Inputs    map[string]fingerprint `json:"inputs"`
}

//go:embed inputs.json
var pinnedJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return p, fmt.Errorf("inputs.json: %w", err)
	}
	if len(p.CCSeeds) == 0 {
		return p, fmt.Errorf("inputs.json: no cc_seeds")
	}
	return p, nil
}

// ccSeed is the Options.Seed of a run's k-th setup or recompute.
func (p pins) ccSeed(k int) uint64 { return p.CCSeeds[k%len(p.CCSeeds)] }

// checkPin compares a generated input against its recorded fingerprint.
func checkPin(name string, table map[string]fingerprint, got fingerprint) error {
	want, ok := table[name]
	if !ok {
		return fmt.Errorf("input drift: no fingerprint recorded for %s", name)
	}
	if got != want {
		return fmt.Errorf("input drift: input of %s is %+v, recorded %+v", name, got, want)
	}
	return nil
}

// input is one generated workload input: the file the service loads and
// the oracle roots its answers are checked against.
type input struct {
	path string
	fp   fingerprint
	root []int32
	base *oracle // flattened; clone before adding edges
}

// hashCounter is an io.Writer that hashes and counts what passes through.
type hashCounter struct {
	h hash.Hash
	n int64
}

func (hc *hashCounter) Write(p []byte) (int, error) {
	hc.n += int64(len(p))
	return hc.h.Write(p)
}

// writeGraph serializes g in the workload's format to w.
func writeGraph(w io.Writer, g *parconn.Graph, text bool) error {
	if text {
		return g.Write(w)
	}
	return g.WriteBinary(w)
}

// generate builds the input of w at the given scale for seed. With dir set
// it writes the graph file there; without, it only fingerprints it.
func generate(w workload, scale int, seed uint64, dir string) (*input, error) {
	n := 1 << scale
	edges := rmatEdges(scale, w.edgeFactor, seed)
	base := oracleOf(n, edges)
	g, err := parconn.NewGraph(n, edges, parconn.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("building %s graph: %w", w.name, err)
	}
	edges = nil // let the edge list go before the graph is written
	hc := &hashCounter{h: sha256.New()}
	in := &input{base: base}
	if dir == "" {
		err = writeGraph(hc, g, w.text)
	} else {
		in.path = filepath.Join(dir, w.inputName())
		err = writeFile(in.path, func(f io.Writer) error { return writeGraph(io.MultiWriter(f, hc), g, w.text) })
	}
	if err != nil {
		return nil, fmt.Errorf("writing %s input: %w", w.name, err)
	}
	in.fp = fingerprint{N: n, M: g.NumEdges(), Bytes: hc.n, SHA256: hex.EncodeToString(hc.h.Sum(nil))}
	in.root = base.roots()
	return in, nil
}

// writeFile creates path and fills it with fill, checking every error on
// the way to a closed file.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// prepareInput generates the workload's graph file and checks it against
// its recorded fingerprint.
func prepareInput(w workload, dir string, p pins) (*input, error) {
	in, err := generate(w, w.scale, p.GraphSeed, dir)
	if err != nil {
		return nil, err
	}
	if err := checkPin(w.name, p.Inputs, in.fp); err != nil {
		os.Remove(in.path)
		return nil, err
	}
	return in, nil
}
