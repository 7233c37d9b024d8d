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
		"refreshes applied as plus/minus delta passes rooted at the batch's dirty vertices")
	mDeltaFull = obs.NewCounter("repro_delta_full_rebuilds_total",
		"refreshes that fell back to a from-scratch re-enumeration")
	mDeltaBall = obs.NewHistogram("repro_delta_ball_vertices",
		"combined plus+minus mutation-ball size per delta refresh, in vertices", obs.SizeBuckets)
	// The two pass counters are deterministic work counts, published once
	// per pass: what the pinned searches emitted against what the pass
	// counted. They differ only by the instances through two or more dirty
	// vertices; a ratio far above one means a pass is filtering an
	// enumeration again instead of rooting it.
	mPassRepresentatives = obs.NewCounter("repro_delta_pass_representatives_total",
		"representatives emitted by the pinned searches of delta passes")
	mPassCounted = obs.NewCounter("repro_delta_pass_counted_total",
		"representatives delta passes counted: one per instance touching a dirty vertex")
)
