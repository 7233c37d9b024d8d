package miner

import "repro/internal/core"

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
