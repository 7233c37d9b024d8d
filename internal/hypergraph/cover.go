package hypergraph

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// CoverResult is the outcome of a vertex cover computation.
type CoverResult struct {
	// Cover is the selected vertex set, sorted.
	Cover []graph.VertexID
	// Size is len(Cover); kept separately so callers that only need the
	// support value do not have to touch the slice.
	Size int
	// Exact reports whether the result is provably optimal. Greedy and
	// size-limited exact runs set it to false.
	Exact bool
}

// MinimumVertexCover computes a minimum vertex cover of the hypergraph
// (Definition 3.3.1) by branch and bound. maxNodes bounds the number of
// search nodes explored; when the bound is hit the best cover found so far is
// returned with Exact=false. A maxNodes of zero means unlimited.
//
// The branching rule picks an uncovered edge and tries each of its vertices,
// which keeps the search tree at most k-ary for k-uniform hypergraphs; the
// greedy cover provides the initial upper bound.
func (h *Hypergraph) MinimumVertexCover(maxNodes int) CoverResult {
	if h.NumEdges() == 0 {
		return CoverResult{Cover: nil, Size: 0, Exact: true}
	}

	best := h.GreedyVertexCover()
	bestSet := make(map[graph.VertexID]bool, len(best.Cover))
	for _, v := range best.Cover {
		bestSet[v] = true
	}
	bestSize := best.Size

	chosen := make(map[graph.VertexID]bool)
	explored := 0
	truncated := false

	// firstUncovered returns an edge not intersected by chosen, or -1.
	firstUncovered := func() int {
		for i, e := range h.edges {
			covered := false
			for _, v := range e.Vertices {
				if chosen[v] {
					covered = true
					break
				}
			}
			if !covered {
				return i
			}
		}
		return -1
	}

	// matchingLowerBound greedily packs pairwise-disjoint uncovered edges;
	// any vertex cover needs at least one (distinct) vertex per packed edge,
	// so the packing size is a valid lower bound on the remaining work.
	matchingLowerBound := func() int {
		used := make(map[graph.VertexID]bool)
		count := 0
		for _, e := range h.edges {
			covered := false
			for _, v := range e.Vertices {
				if chosen[v] {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			disjoint := true
			for _, v := range e.Vertices {
				if used[v] {
					disjoint = false
					break
				}
			}
			if !disjoint {
				continue
			}
			for _, v := range e.Vertices {
				used[v] = true
			}
			count++
		}
		return count
	}

	var search func()
	search = func() {
		if truncated {
			return
		}
		explored++
		if maxNodes > 0 && explored > maxNodes {
			truncated = true
			return
		}
		if len(chosen) >= bestSize {
			return // cannot improve
		}
		idx := firstUncovered()
		if idx < 0 {
			// All edges covered with a strictly smaller cover.
			bestSize = len(chosen)
			bestSet = make(map[graph.VertexID]bool, len(chosen))
			for v := range chosen {
				bestSet[v] = true
			}
			return
		}
		if len(chosen)+matchingLowerBound() >= bestSize {
			return // even a perfect finish cannot beat the incumbent
		}
		// Branch on every vertex of the uncovered edge, trying high-degree
		// vertices first.
		edge := h.edges[idx]
		cands := make([]graph.VertexID, len(edge.Vertices))
		copy(cands, edge.Vertices)
		sort.Slice(cands, func(i, j int) bool {
			di, dj := h.VertexDegree(cands[i]), h.VertexDegree(cands[j])
			if di != dj {
				return di > dj
			}
			return cands[i] < cands[j]
		})
		for _, v := range cands {
			chosen[v] = true
			search()
			delete(chosen, v)
			if truncated {
				return
			}
		}
	}
	search()

	cover := make([]graph.VertexID, 0, len(bestSet))
	for v := range bestSet {
		cover = append(cover, v)
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return CoverResult{Cover: cover, Size: len(cover), Exact: !truncated}
}

// GreedyVertexCover computes a vertex cover by repeatedly selecting the
// vertex contained in the largest number of uncovered edges (the classical
// greedy set-cover heuristic, O(ln m)-approximate). The result is a valid
// cover but not necessarily minimum; Exact is always false unless the cover
// is empty.
func (h *Hypergraph) GreedyVertexCover() CoverResult {
	if h.NumEdges() == 0 {
		return CoverResult{Exact: true}
	}
	covered := make([]bool, h.NumEdges())
	remaining := h.NumEdges()
	chosen := make(map[graph.VertexID]bool)
	vertices := h.Vertices()

	for remaining > 0 {
		var best graph.VertexID
		bestGain := -1
		for _, v := range vertices {
			if chosen[v] {
				continue
			}
			gain := 0
			for _, id := range h.incidence[v] {
				if !covered[id] {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && v < best) {
				best, bestGain = v, gain
			}
		}
		if bestGain <= 0 {
			break
		}
		chosen[best] = true
		for _, id := range h.incidence[best] {
			if !covered[id] {
				covered[id] = true
				remaining--
			}
		}
	}
	cover := make([]graph.VertexID, 0, len(chosen))
	for v := range chosen {
		cover = append(cover, v)
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return CoverResult{Cover: cover, Size: len(cover), Exact: false}
}

// MatchingVertexCover computes a vertex cover via the classical maximal
// matching argument generalized to hypergraphs: repeatedly pick an uncovered
// edge and add all of its vertices to the cover. For k-uniform hypergraphs
// this is the textbook k-approximation referenced in Section 3.3 (the best
// known polynomial algorithms achieve k - o(1)).
func (h *Hypergraph) MatchingVertexCover() CoverResult {
	chosen := make(map[graph.VertexID]bool)
	for _, e := range h.edges {
		covered := false
		for _, v := range e.Vertices {
			if chosen[v] {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		for _, v := range e.Vertices {
			chosen[v] = true
		}
	}
	cover := make([]graph.VertexID, 0, len(chosen))
	for v := range chosen {
		cover = append(cover, v)
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return CoverResult{Cover: cover, Size: len(cover), Exact: h.NumEdges() == 0}
}

// IsVertexCover reports whether the given vertex set intersects every edge.
func (h *Hypergraph) IsVertexCover(cover []graph.VertexID) bool {
	return h.ValidateCover(cover) == nil
}

// ValidateCover returns an error describing the first uncovered edge, or nil
// if cover is a valid vertex cover.
func (h *Hypergraph) ValidateCover(cover []graph.VertexID) error {
	set := make(map[graph.VertexID]bool, len(cover))
	for _, v := range cover {
		set[v] = true
	}
	for i, e := range h.edges {
		hit := false
		for _, v := range e.Vertices {
			if set[v] {
				hit = true
				break
			}
		}
		if !hit {
			return fmt.Errorf("hypergraph: edge %d %v is not covered", i, e.Vertices)
		}
	}
	return nil
}
