package hypergraph

import (
	"sort"
)

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
	res := NewOverlapGraph(h, nil).MaximumIndependentSet(maxNodes)
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
	// Overlap degree per edge, computed from the incidence lists so the work
	// is proportional to the number of actually overlapping pairs.
	overlapSets := make([]map[int]bool, m)
	for i := range overlapSets {
		overlapSets[i] = make(map[int]bool)
	}
	for _, ids := range h.incidence {
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				a, b := int(ids[x]), int(ids[y])
				overlapSets[a][b] = true
				overlapSets[b][a] = true
			}
		}
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if len(overlapSets[order[a]]) != len(overlapSets[order[b]]) {
			return len(overlapSets[order[a]]) < len(overlapSets[order[b]])
		}
		return order[a] < order[b]
	})

	used := make(map[int]bool) // vertices already consumed, keyed by int(VertexID)
	var selected []EdgeID
	for _, idx := range order {
		e := h.edges[idx]
		free := true
		for _, v := range e.Vertices {
			if used[int(v)] {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for _, v := range e.Vertices {
			used[int(v)] = true
		}
		selected = append(selected, EdgeID(idx))
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i] < selected[j] })
	return MatchingResult{Edges: selected, Size: len(selected), Exact: false}
}

// IsIndependentEdgeSet reports whether the given edges are pairwise
// vertex-disjoint.
func (h *Hypergraph) IsIndependentEdgeSet(edges []EdgeID) bool {
	seen := make(map[int]bool)
	for _, id := range edges {
		e, ok := h.Edge(id)
		if !ok {
			return false
		}
		for _, v := range e.Vertices {
			if seen[int(v)] {
				return false
			}
			seen[int(v)] = true
		}
	}
	return true
}
