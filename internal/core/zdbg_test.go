package core

import (
	"testing"

	"parconn/internal/decomp"
	"parconn/internal/graph"
	"parconn/internal/obs"
)

func TestDebugHighBeta(t *testing.T) {
	g := graph.Line(50, 6)
	tr := obs.NewTrace()
	_, err := CC(g, Options{Variant: decomp.Arb, Beta: 0.9, Seed: 1, Recorder: tr})
	t.Logf("err=%v", err)
	levels := tr.LevelEnds()
	for i, ls := range levels {
		if i > 12 && i < len(levels)-3 {
			continue
		}
		t.Logf("%+v", ls)
	}
}
