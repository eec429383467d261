// Package graphsrc is the graph input the commands share: the -in / -gen
// flags and the loader behind them, which either reads a file (binary,
// AdjacencyGraph, or edge-list format, sniffed from its first bytes) or
// runs one of the library's generators.
package graphsrc

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"parconn"
)

// Spec says where a command's graph comes from: the file In when set,
// otherwise the generator Gen with its size parameters.
type Spec struct {
	In, Gen                string
	N, Scale, Side, Degree int
	Seed                   uint64
}

// Flags registers -in, -gen, -n, -scale, -side, -degree, and -seed on fs
// and returns the Spec they fill in.
func Flags(fs *flag.FlagSet) *Spec {
	s := &Spec{}
	fs.StringVar(&s.In, "in", "", "input graph file (AdjacencyGraph, binary, or edge-list format)")
	fs.StringVar(&s.Gen, "gen", "", "generator: random, rmat, grid3d, line, social, star")
	fs.IntVar(&s.N, "n", 1_000_000, "vertex count for random/line/star generators")
	fs.IntVar(&s.Scale, "scale", 18, "log2 vertex count for rmat/social generators")
	fs.IntVar(&s.Side, "side", 100, "side length for grid3d")
	fs.IntVar(&s.Degree, "degree", 5, "edges per vertex for random; edge factor for rmat")
	fs.Uint64Var(&s.Seed, "seed", 42, "random seed (generators and algorithm)")
	return s
}

// Load reads or generates the graph and returns it with a readable source:
// the file path, or the generator and its parameters. Errors Load makes
// itself are prefixed with tool, the command name.
func (s Spec) Load(tool string) (*parconn.Graph, string, error) {
	if s.In != "" {
		g, err := readFile(s.In)
		return g, s.In, err
	}
	switch s.Gen {
	case "random":
		return parconn.RandomGraph(s.N, s.Degree, s.Seed), fmt.Sprintf("gen:random(n=%d,degree=%d)", s.N, s.Degree), nil
	case "rmat":
		return parconn.RMatGraph(s.Scale, parconn.RMatOptions{EdgeFactor: s.Degree, Seed: s.Seed}),
			fmt.Sprintf("gen:rmat(scale=%d,ef=%d)", s.Scale, s.Degree), nil
	case "grid3d":
		return parconn.Grid3DGraph(s.Side, s.Seed), fmt.Sprintf("gen:grid3d(side=%d)", s.Side), nil
	case "line":
		return parconn.LineGraph(s.N, s.Seed), fmt.Sprintf("gen:line(n=%d)", s.N), nil
	case "social":
		return parconn.SocialGraph(s.Scale, s.Seed), fmt.Sprintf("gen:social(scale=%d)", s.Scale), nil
	case "star":
		return parconn.StarGraph(s.N), fmt.Sprintf("gen:star(n=%d)", s.N), nil
	case "":
		return nil, "", fmt.Errorf("%s: need -in FILE or -gen NAME", tool)
	default:
		return nil, "", fmt.Errorf("%s: unknown generator %q", tool, s.Gen)
	}
}

// readFile sniffs the format: binary starts with "PCONNGR1", the PBBS text
// format with "AdjacencyGraph"; anything else is read as a SNAP-style edge
// list.
func readFile(path string) (*parconn.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	if head, err := br.Peek(14); err == nil {
		switch {
		case string(head[:8]) == "PCONNGR1":
			return parconn.ReadBinaryGraph(br)
		case string(head) == "AdjacencyGraph":
			return parconn.ReadGraph(br)
		}
	}
	return parconn.ReadEdgeList(br)
}
