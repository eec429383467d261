package decomp

import (
	"time"

	"parconn/internal/obs"
)

// The machines emit only obs events. PhaseTimes is the paper-shaped
// (Figures 5-7) fold of a trace's Phase events, rebuilt after the run by
// PhaseTimesFrom.

// Add accumulates d into the bucket matching the obs phase name. The setup
// phase (the connectivity driver's working-graph copy) folds into Init,
// which predates it. Unknown names are dropped.
func (p *PhaseTimes) Add(name string, d time.Duration) {
	switch name {
	case obs.PhaseInit, obs.PhaseSetup:
		p.Init += d
	case obs.PhaseBFSPre:
		p.BFSPre += d
	case obs.PhaseBFSPhase1:
		p.BFSPhase1 += d
	case obs.PhaseBFSPhase2:
		p.BFSPhase2 += d
	case obs.PhaseBFSMain:
		p.BFSMain += d
	case obs.PhaseBFSSparse:
		p.BFSSparse += d
	case obs.PhaseBFSDense:
		p.BFSDense += d
	case obs.PhaseFilterEdges:
		p.FilterEdges += d
	case obs.PhaseContract:
		p.Contract += d
	}
}

// PhaseTimesFrom rebuilds the legacy per-phase breakdown from a trace's
// Phase events.
func PhaseTimesFrom(phases []obs.Phase) PhaseTimes {
	var p PhaseTimes
	for _, e := range phases {
		p.Add(e.Name, e.Duration)
	}
	return p
}
