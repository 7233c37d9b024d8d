package graph

import "repro/internal/obs"

// mMutations counts every mutation applied to any mutable graph in the
// process. notifyFeeds is the single point all four mutation kinds funnel
// through after the graph state is updated, so one hook there covers
// AddVertex, AddEdge, RemoveEdge and RemoveVertex alike.
var mMutations = obs.NewCounter("repro_graph_mutations_total",
	"mutations applied to mutable graphs, across all kinds")

// mShardBuilds counts every CSR shard a freeze of a mutable graph built from
// scratch or patched row by row; a freeze that is a cache hit, and a clean
// shard a refreeze shares, count nothing.
var mShardBuilds = obs.NewCounter("repro_graph_shard_builds_total",
	"CSR shards built or patched by freezes of mutable graphs")
