package miner

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TrackedContexts returns the live delta context of every pattern the session
// tracks, in the reporting order (edge count, then canonical code).
func (inc *Incremental) TrackedContexts() []*core.DeltaContext {
	tracked := inc.sortedTracked()
	out := make([]*core.DeltaContext, len(tracked))
	for i, tp := range tracked {
		out[i] = tp.delta
	}
	return out
}

// CheckWitnesses holds every witness a cold mine's and a session open's walks
// grow on g to the sub-patterns they replaced (see checkWitnesses).
func CheckWitnesses(t *testing.T, g *graph.Graph, minSupport float64, maxSize int) {
	checkWitnesses(t, g, minSupport, maxSize)
}
