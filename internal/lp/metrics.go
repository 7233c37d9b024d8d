package lp

import "repro/internal/obs"

// Solver work counters. All three are deterministic for a given hypergraph
// (the pivot sequence depends on nothing but the tableau), so two runs — or
// two numberings of one graph — can be diffed by them.
var (
	mSolves = obs.NewCounter("repro_lp_solves_total",
		"packing LPs solved (Solve calls, including those on an empty hypergraph)")
	mPivots = obs.NewCounter("repro_lp_pivots_total",
		"simplex pivots performed")
	mBlandPivots = obs.NewCounter("repro_lp_bland_pivots_total",
		"entering columns picked by Bland's rule after a run of degenerate pivots")
)
