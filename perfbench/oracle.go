package main

import (
	"fmt"

	"parconn"
)

// oracle is the benchmark's own serial union-find over the generated edge
// list, the reference every answer of the system under test is checked
// against. It shares no code with the library.
type oracle struct {
	parent []int32
}

// oracleOf builds the oracle of an n-vertex graph with the given edges.
func oracleOf(n int, edges []parconn.Edge) *oracle {
	o := &oracle{parent: make([]int32, n)}
	for i := range o.parent {
		o.parent[i] = int32(i)
	}
	o.add(edges)
	return o
}

// find returns v's root, halving the path on the way.
func (o *oracle) find(v int32) int32 {
	for o.parent[v] != v {
		o.parent[v] = o.parent[o.parent[v]]
		v = o.parent[v]
	}
	return v
}

// add unions the endpoints of every edge, linking the larger root under
// the smaller so roots stay deterministic.
func (o *oracle) add(edges []parconn.Edge) {
	for _, e := range edges {
		a, b := o.find(e.U), o.find(e.V)
		switch {
		case a < b:
			o.parent[b] = a
		case b < a:
			o.parent[a] = b
		}
	}
}

// roots flattens the forest and returns the root of every vertex. The
// result is read-only and safe to share between goroutines.
func (o *oracle) roots() []int32 {
	r := make([]int32, len(o.parent))
	for v := range r {
		r[v] = o.find(int32(v))
	}
	return r
}

// clone returns an independent copy, for extending with inserted edges.
func (o *oracle) clone() *oracle {
	return &oracle{parent: append([]int32(nil), o.parent...)}
}

// components counts the roots.
func (o *oracle) components() int {
	c := 0
	for v, p := range o.parent {
		if int(p) == v {
			c++
		}
	}
	return c
}

// checkLabeling verifies that labels partitions the vertices exactly as
// root does: the map from label to oracle root must be one-to-one, in both
// directions. Labels must be vertex ids, as the library documents.
func checkLabeling(root, labels []int32) error {
	if len(labels) != len(root) {
		return fmt.Errorf("labeling has %d entries, graph has %d vertices", len(labels), len(root))
	}
	rootOf := make([]int32, len(root))  // label -> oracle root, -1 unseen
	labelOf := make([]int32, len(root)) // oracle root -> label, -1 unseen
	for i := range rootOf {
		rootOf[i], labelOf[i] = -1, -1
	}
	for v, l := range labels {
		if l < 0 || int(l) >= len(root) {
			return fmt.Errorf("vertex %d: label %d is not a vertex id", v, l)
		}
		r := root[v]
		if want := rootOf[l]; want >= 0 && want != r {
			return fmt.Errorf("vertex %d: label %d spans two oracle components (roots %d and %d)", v, l, want, r)
		}
		if want := labelOf[r]; want >= 0 && want != l {
			return fmt.Errorf("vertex %d: oracle component %d split across labels %d and %d", v, r, want, l)
		}
		rootOf[l], labelOf[r] = r, l
	}
	return nil
}
