package support

import "repro/internal/obs"

// Engine-layer metrics. Request counters split by kind, per-phase latency
// histograms mirroring the span taxonomy of DoContext (plan, enumerate,
// aggregate, mine), the search counts of mining requests, and the epoch
// gauge — which tracks the most recently published engine state in the
// process, the live serving engine in any deployment that runs one.
var (
	mEpoch = obs.NewGauge("repro_engine_epoch",
		"epoch of the most recently published engine state")
	mRequests = obs.NewCounter("repro_engine_requests_total",
		"requests answered by Engine.Do, across all kinds")
	mEvaluations = obs.NewCounter("repro_engine_evaluations_total",
		"pattern-evaluation requests answered")
	mMines = obs.NewCounter("repro_engine_mines_total",
		"mining requests answered")
	mExplains = obs.NewCounter("repro_engine_explains_total",
		"plan explanations compiled")
	mUpdates = obs.NewCounter("repro_engine_updates_total",
		"Engine.Update epoch handoffs published")
	mPlanSeconds = obs.NewHistogram("repro_engine_plan_seconds",
		"latency of the plan phase (search-plan compilation for Explain)", obs.LatencyBuckets)
	mEnumerateSeconds = obs.NewHistogram("repro_engine_enumerate_seconds",
		"latency of the enumerate phase (occurrence enumeration of an evaluation)", obs.LatencyBuckets)
	mAggregateSeconds = obs.NewHistogram("repro_engine_aggregate_seconds",
		"latency of the aggregate phase (measure evaluation over enumerated state)", obs.LatencyBuckets)
	mMineSeconds = obs.NewHistogram("repro_engine_mine_seconds",
		"end-to-end latency of a mining request", obs.LatencyBuckets)
	mMinerExtensions = obs.NewCounter("repro_miner_extensions_total",
		"pattern extensions generated by mining requests (one per shape and parent)")
	mMinerCodes = obs.NewCounter("repro_miner_codes_total",
		"canonical codes computed by mining requests (seeds plus every grow step)")
	mMinerDuplicates = obs.NewCounter("repro_miner_duplicates_total",
		"candidates mining requests skipped as isomorphic to an earlier one")
	mMinerCandidates = obs.NewCounter("repro_miner_candidates_total",
		"candidates whose support mining requests considered")
	mMinerUnsearched = obs.NewCounter("repro_miner_unsearched_total",
		"candidates mining requests pruned without a search, from their sub-patterns' domains")
	mSessionOpens = obs.NewCounter("repro_session_opens_total",
		"warm mining sessions opened on engines")
	mSessionOpenSeconds = obs.NewHistogram("repro_session_open_seconds",
		"latency of Engine.OpenSession, the initial mining run included", obs.LatencyBuckets)
	mSessionRefreshSeconds = obs.NewHistogram("repro_session_refresh_seconds",
		"latency of Session.Refresh, including delta maintenance", obs.LatencyBuckets)
)
