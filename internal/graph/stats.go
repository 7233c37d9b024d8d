package graph

// Statistics accessors of the frozen snapshot. These are the inputs of the
// statistics-light search-order planner in internal/isomorph: everything here
// is either a stored total or derivable from the per-shard label partitions in
// O(shards), so planning never scans vertex or adjacency arrays and stays in
// the microsecond range even for out-of-core snapshots.

// LabelCount returns the number of vertices carrying the given label. It sums
// the per-shard label partitions (already materialized at freeze/open time),
// so the cost is O(shards).
func (s *Snapshot) LabelCount(l Label) int {
	total := 0
	for k := range s.shards {
		total += len(s.shards[k].byLabel[l])
	}
	return total
}

// AvgDegree returns the mean vertex degree 2|E|/|V| of the snapshot, or zero
// for an empty graph. It is the one-number degree statistic the search-order
// planner uses for its Markov-style selectivity bounds.
func (s *Snapshot) AvgDegree() float64 {
	if s.n == 0 {
		return 0
	}
	return 2 * float64(s.numEdges) / float64(s.n)
}
