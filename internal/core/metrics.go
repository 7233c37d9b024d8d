package core

import "repro/internal/obs"

// Delta-maintenance metrics: the process-wide view of what the per-context
// DeltaStats structs count individually. The delta-vs-full split is the
// staleness/refresh-cost accounting a standing-query deployment watches, and
// the ball-size histogram shows how local the update stream actually is — the
// ball is computed as a size for that and for the saturation rule; nothing is
// laid out over it.
var (
	mDeltaRefreshes = obs.NewCounter("repro_delta_refreshes_total",
		"DeltaContext refreshes, including no-op ones")
	mDeltaApplied = obs.NewCounter("repro_delta_delta_refreshes_total",
		"refreshes applied as plus/minus delta passes rooted at the batch's mutated edges")
	mDeltaFull = obs.NewCounter("repro_delta_full_rebuilds_total",
		"refreshes that fell back to a from-scratch re-enumeration")
	mDeltaBall = obs.NewHistogram("repro_delta_ball_vertices",
		"combined plus+minus mutation-ball size per delta refresh, in vertices", obs.SizeBuckets)
	// The three pass counters are deterministic work counts, published once
	// per pass: what the pinned searches emitted, what the pass counted and
	// what it applied to the maintained state. The first two differ only by
	// the instances using two or more mutated edges, and the last two not at
	// all; a ratio far above one means a pass is meeting instances the batch
	// left alone again.
	mPassRepresentatives = obs.NewCounter("repro_delta_pass_representatives_total",
		"representatives emitted by the pinned searches of delta passes")
	mPassCounted = obs.NewCounter("repro_delta_pass_counted_total",
		"representatives delta passes counted: one per instance using a mutated edge or vertex")
	mPassApplied = obs.NewCounter("repro_delta_pass_applied_total",
		"counted representatives delta passes applied to the maintained state")
	// The re-check counters are deterministic work counts too, published once
	// per refresh: the distinct (orbit, vertex) suspects the minus passes left,
	// how many of them the re-checks cleared, and the arcs the re-checks'
	// searches were rooted at. The re-checks publish nothing to the
	// enumeration counters, which count the passes' work alone.
	mRechecks = obs.NewCounter("repro_delta_rechecks_total",
		"distinct (node orbit, vertex) pairs of destroyed instances re-checked after a delta refresh")
	mRecheckCleared = obs.NewCounter("repro_delta_recheck_cleared_total",
		"re-checked (node orbit, vertex) pairs no instance maps any more, cleared from their domains")
	mRecheckRoots = obs.NewCounter("repro_delta_recheck_roots_total",
		"data arcs the re-checks' pinned searches were rooted at")
)
