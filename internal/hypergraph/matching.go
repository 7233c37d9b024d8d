package hypergraph

import "slices"

// MatchingResult is the outcome of a maximum independent edge set (hypergraph
// matching / set packing) computation.
type MatchingResult struct {
	// Edges lists the IDs of the selected pairwise-disjoint edges, sorted.
	Edges []EdgeID
	// Size is len(Edges).
	Size int
	// Exact reports whether the result is provably maximum.
	Exact bool
}

// MaximumIndependentEdgeSet computes a maximum set of pairwise vertex-disjoint
// edges (Definition 4.2.1, the MIES measure). By Theorem 4.1 that is a maximum
// independent set of the simple-overlap graph, so this is the one search of
// OverlapGraph.MaximumIndependentSet run on NewOverlapGraph(h, nil), with the
// same maxNodes budget and Exact flag.
func (h *Hypergraph) MaximumIndependentEdgeSet(maxNodes int) MatchingResult {
	return h.MaximumIndependentEdgeSetBounded(maxNodes, 0)
}

// MaximumIndependentEdgeSetBounded is MaximumIndependentEdgeSet for a caller
// that already holds an upper bound on the optimum (⌊ν_MIES⌋ of the LP
// relaxation, say): the search ends, with Exact=true, the moment its
// incumbent reaches upperBound. The incumbent only ever changes on strict
// improvement, so a search that would have finished anyway returns the same
// edges. An upperBound of zero is no bound.
func (h *Hypergraph) MaximumIndependentEdgeSetBounded(maxNodes, upperBound int) MatchingResult {
	res, explored := NewOverlapGraph(h, nil).maximumIndependentSet(maxNodes, upperBound)
	mPackingNodes.Add(uint64(explored))
	edges := make([]EdgeID, len(res.Members))
	for i, m := range res.Members {
		edges[i] = EdgeID(m)
	}
	return MatchingResult{Edges: edges, Size: res.Size, Exact: res.Exact}
}

// GreedyIndependentEdgeSet computes an inclusion-maximal independent edge set
// by scanning edges in order of increasing overlap degree (number of
// conflicting edges) and adding every edge that does not conflict with the
// selection so far. The result is at least 1/k of the optimum for k-uniform
// hypergraphs.
func (h *Hypergraph) GreedyIndependentEdgeSet() MatchingResult {
	m := h.NumEdges()
	if m == 0 {
		return MatchingResult{Exact: true}
	}
	d := h.view()
	// Overlap degrees are counted off the incidence lists under one stamp
	// array: the overlapping pairs are walked, never stored.
	degree := make([]int32, m)
	mark := make([]int32, m)
	var buf []int32
	for e := range degree {
		buf = d.overlaps(int32(e), mark, buf[:0])
		degree[e] = int32(len(buf))
	}
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if degree[a] != degree[b] {
			return int(degree[a] - degree[b])
		}
		return int(a - b)
	})

	used := make([]bool, len(d.vertices))
	var selected []EdgeID
next:
	for _, e := range order {
		for _, r := range d.edge(e) {
			if used[r] {
				continue next
			}
		}
		for _, r := range d.edge(e) {
			used[r] = true
		}
		selected = append(selected, EdgeID(e))
	}
	slices.Sort(selected)
	return MatchingResult{Edges: selected, Size: len(selected), Exact: false}
}

// IsIndependentEdgeSet reports whether the given edges are pairwise
// vertex-disjoint.
func (h *Hypergraph) IsIndependentEdgeSet(edges []EdgeID) bool {
	d := h.view()
	seen := make([]bool, len(d.vertices))
	for _, id := range edges {
		if id < 0 || int(id) >= d.numEdges() {
			return false
		}
		for _, r := range d.edge(int32(id)) {
			if seen[r] {
				return false
			}
			seen[r] = true
		}
	}
	return true
}
