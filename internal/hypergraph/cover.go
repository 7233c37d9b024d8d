package hypergraph

import (
	"fmt"
	"math"

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
// The branching rule picks the first uncovered edge and tries each of its
// vertices, highest degree first, which keeps the search tree at most k-ary
// for k-uniform hypergraphs; the greedy cover provides the initial upper
// bound and a greedy packing of the uncovered edges the lower bound at every
// node.
func (h *Hypergraph) MinimumVertexCover(maxNodes int) CoverResult {
	return h.MinimumVertexCoverBounded(maxNodes, 0)
}

// MinimumVertexCoverBounded is MinimumVertexCover for a caller that already
// holds a lower bound on the optimum (⌈ν_MVC⌉ of the LP relaxation, say): the
// search ends, with Exact=true, the moment its incumbent is no larger than
// lowerBound, instead of spending the rest of the budget proving what the
// bound already proves. The incumbent only ever changes on strict
// improvement, so a search that would have finished anyway returns the same
// cover. A lowerBound of zero is no bound.
func (h *Hypergraph) MinimumVertexCoverBounded(maxNodes, lowerBound int) CoverResult {
	res, explored := h.minimumVertexCover(maxNodes, lowerBound)
	mCoverNodes.Add(uint64(explored))
	return res
}

// minimumVertexCover is the search behind both entry points; it also returns
// the number of search nodes it explored.
func (h *Hypergraph) minimumVertexCover(maxNodes, lowerBound int) (CoverResult, int) {
	if h.NumEdges() == 0 {
		return CoverResult{Exact: true}, 0
	}
	d := h.view()
	s := coverSearch{
		d:        d,
		maxNodes: maxNodes,
		lower:    lowerBound,
		chosen:   make([]bool, len(d.vertices)),
		hits:     make([]int32, d.numEdges()),
		used:     make([]uint32, len(d.vertices)),
	}
	s.best, s.bestSize = greedyVertexCover(d)
	if s.bestSize > s.lower {
		s.search(0)
	}
	return CoverResult{Cover: d.ids(s.best), Size: s.bestSize, Exact: !s.truncated}, s.explored
}

// coverSearch is the state of one branch-and-bound cover search.
type coverSearch struct {
	d        *dense
	maxNodes int
	lower    int

	// chosen marks the vertices of the partial cover, by rank; hits[e] is how
	// many of them edge e contains, kept current along the incidence list of
	// the vertex a node branches on.
	chosen  []bool
	nChosen int
	hits    []int32

	// used stamps the vertices consumed by the greedy packing of one
	// lowerBoundReaches call with that call's epoch.
	used  []uint32
	epoch uint32

	best     []bool
	bestSize int

	explored  int
	truncated bool // the node budget ran out
	stopped   bool // truncated, or the incumbent met the lower bound
}

// search explores the node whose partial cover is chosen. Every edge before
// from is covered by it.
func (s *coverSearch) search(from int32) {
	if s.stopped {
		return
	}
	s.explored++
	if s.maxNodes > 0 && s.explored > s.maxNodes {
		s.truncated, s.stopped = true, true
		return
	}
	if s.nChosen >= s.bestSize {
		return // cannot improve
	}
	e, m := from, int32(len(s.hits))
	for e < m && s.hits[e] > 0 {
		e++
	}
	if e == m {
		// All edges covered with a strictly smaller cover.
		s.bestSize = s.nChosen
		copy(s.best, s.chosen)
		s.stopped = s.bestSize <= s.lower
		return
	}
	if s.lowerBoundReaches(e, s.bestSize-s.nChosen) {
		return // even a perfect finish cannot beat the incumbent
	}
	for _, v := range s.d.branchOrder(e) {
		s.chosen[v] = true
		s.nChosen++
		for _, f := range s.d.incident(v) {
			s.hits[f]++
		}
		s.search(e + 1)
		for _, f := range s.d.incident(v) {
			s.hits[f]--
		}
		s.nChosen--
		s.chosen[v] = false
		if s.stopped {
			return
		}
	}
}

// lowerBoundReaches greedily packs pairwise-disjoint uncovered edges, in edge
// order from the first uncovered one, and reports whether the packing reaches
// need edges. Any vertex cover needs one more vertex per packed edge, so the
// packing size is a lower bound on what the partial cover still lacks.
func (s *coverSearch) lowerBoundReaches(from int32, need int) bool {
	if s.epoch == math.MaxUint32 {
		clear(s.used)
		s.epoch = 0
	}
	s.epoch++
	count := 0
next:
	for e := from; e < int32(len(s.hits)); e++ {
		if s.hits[e] > 0 {
			continue
		}
		vs := s.d.edge(e)
		for _, v := range vs {
			if s.used[v] == s.epoch {
				continue next
			}
		}
		for _, v := range vs {
			s.used[v] = s.epoch
		}
		if count++; count >= need {
			return true
		}
	}
	return false
}

// GreedyVertexCover computes a vertex cover by repeatedly selecting the
// vertex contained in the largest number of uncovered edges (the classical
// greedy set-cover heuristic, O(ln m)-approximate), the lowest ID among
// equals. The result is a valid cover but not necessarily minimum; Exact is
// always false unless the cover is empty.
func (h *Hypergraph) GreedyVertexCover() CoverResult {
	if h.NumEdges() == 0 {
		return CoverResult{Exact: true}
	}
	d := h.view()
	chosen, size := greedyVertexCover(d)
	return CoverResult{Cover: d.ids(chosen), Size: size, Exact: false}
}

// greedyVertexCover returns the greedy cover as a rank-indexed membership
// array, and its size. gain[r] is the number of uncovered edges containing r,
// kept current as edges get covered, so a pick is one scan of the vertices.
func greedyVertexCover(d *dense) ([]bool, int) {
	gain := make([]int32, len(d.vertices))
	for r := range gain {
		gain[r] = int32(d.degree(int32(r)))
	}
	covered := make([]bool, d.numEdges())
	chosen := make([]bool, len(d.vertices))
	size := 0
	for remaining := len(covered); remaining > 0; {
		best := 0
		for r := range gain {
			if gain[r] > gain[best] {
				best = r
			}
		}
		chosen[best] = true
		size++
		for _, e := range d.incident(int32(best)) {
			if covered[e] {
				continue
			}
			covered[e] = true
			remaining--
			for _, r := range d.edge(e) {
				gain[r]--
			}
		}
	}
	return chosen, size
}

// MatchingVertexCover computes a vertex cover via the classical maximal
// matching argument generalized to hypergraphs: repeatedly pick an uncovered
// edge and add all of its vertices to the cover. For k-uniform hypergraphs
// this is the textbook k-approximation referenced in Section 3.3 (the best
// known polynomial algorithms achieve k - o(1)).
func (h *Hypergraph) MatchingVertexCover() CoverResult {
	d := h.view()
	chosen := make([]bool, len(d.vertices))
next:
	for e := int32(0); e < int32(d.numEdges()); e++ {
		for _, r := range d.edge(e) {
			if chosen[r] {
				continue next
			}
		}
		for _, r := range d.edge(e) {
			chosen[r] = true
		}
	}
	cover := d.ids(chosen)
	return CoverResult{Cover: cover, Size: len(cover), Exact: h.NumEdges() == 0}
}

// IsVertexCover reports whether the given vertex set intersects every edge.
func (h *Hypergraph) IsVertexCover(cover []graph.VertexID) bool {
	return h.ValidateCover(cover) == nil
}

// ValidateCover returns an error describing the first uncovered edge, or nil
// if cover is a valid vertex cover.
func (h *Hypergraph) ValidateCover(cover []graph.VertexID) error {
	d := h.view()
	in := make([]bool, len(d.vertices))
	for _, v := range cover {
		if r, ok := d.rank(v); ok {
			in[r] = true
		}
	}
next:
	for e := int32(0); e < int32(d.numEdges()); e++ {
		for _, r := range d.edge(e) {
			if in[r] {
				continue next
			}
		}
		return fmt.Errorf("hypergraph: edge %d %v is not covered", e, d.edgeIDs(e))
	}
	return nil
}
