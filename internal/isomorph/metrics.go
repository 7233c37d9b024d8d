package isomorph

import "repro/internal/obs"

// Enumeration metrics, sampled at shard-drain granularity: the drain loops
// accumulate into goroutine-local counters and publish one atomic add per
// drained shard, so the //gvet:hotpath search functions make no obs call and
// stay allocation-free (emit adds a run's length to one integer of its own
// searchState, and the kernels add the row entries they read to another).
// Roots are counted as searched, which includes the partial drain of a shard
// cut short by an occurrence cap or a halt. The two emit counters say what the
// searches delivered and what that stood for: a search under Options.Symmetry
// delivers one representative per instance, each standing for |Aut(P)|
// occurrences, a full search delivers every occurrence as its own
// representative — so occurrences over representatives is the work symmetry
// breaking saved, and both are sums over roots, the same run to run for any
// worker count. The scanned counter is the kernels' share of the work: the
// anchor row's length each time a memoized run is built, the shorter row's
// length each time two rows are intersected. It is what the planner's work
// model prices (planner.go); it depends on the search order, and on how roots
// fall to workers (a worker keeps a run while its anchor's image repeats), so
// only at one worker is it the same run to run.
var (
	mShardDrains = obs.NewCounter("repro_enum_shard_drains_total",
		"shard drain passes executed by enumeration workers")
	mRoots = obs.NewCounter("repro_enum_roots_total",
		"root candidates searched across all enumerations")
	mRepresentatives = obs.NewCounter("repro_enum_representatives_total",
		"assignments the search completed and lent to a consumer: one per instance under symmetry breaking, one per occurrence in a full search")
	mOccurrences = obs.NewCounter("repro_enum_occurrences_total",
		"occurrences the delivered assignments stand for: |Aut(P)| per representative under symmetry breaking, one each in a full search")
	mScanned = obs.NewCounter("repro_enum_scanned_total",
		"neighbour-row entries the search kernels read: the anchor row per memoized run built, the shorter row per intersection")
)
