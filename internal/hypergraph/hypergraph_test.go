package hypergraph_test

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
)

// figure6Hypergraph is the occurrence hypergraph of the paper's Figure 6:
// seven 2-uniform edges forming two overlapping stars.
func figure6Hypergraph() *hypergraph.Hypergraph {
	h := hypergraph.New()
	for _, vs := range [][]graph.VertexID{{1, 5}, {1, 6}, {1, 7}, {1, 8}, {2, 8}, {3, 8}, {4, 8}} {
		h.MustAddEdge(vs)
	}
	return h
}

// randomUniformHypergraph builds a random k-uniform hypergraph for property
// tests.
func randomUniformHypergraph(seed uint64, k, vertices, edges int) *hypergraph.Hypergraph {
	rng := gen.NewRNG(seed)
	h := hypergraph.New()
	for e := 0; e < edges; e++ {
		var vs []graph.VertexID
		seen := map[int]bool{}
		for len(vs) < k {
			v := rng.Intn(vertices)
			if seen[v] {
				continue
			}
			seen[v] = true
			vs = append(vs, graph.VertexID(v))
		}
		h.MustAddEdge(vs)
	}
	return h
}

func TestHypergraphBasics(t *testing.T) {
	h := hypergraph.New()
	if _, err := h.AddEdge(nil); err == nil {
		t.Error("empty edge should be rejected")
	}
	id, err := h.AddEdge([]graph.VertexID{3, 1, 3, 2}) // duplicate vertex collapsed
	if err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	e, ok := h.Edge(id)
	if !ok || len(e.Vertices) != 3 || e.Vertices[0] != 1 {
		t.Errorf("Edge(%d) = %+v", id, e)
	}
	if _, ok := h.Edge(99); ok {
		t.Error("Edge(99) should not exist")
	}
	h.MustAddEdge([]graph.VertexID{2, 4})
	if h.NumVertices() != 4 || h.NumEdges() != 2 {
		t.Errorf("sizes = %d vertices, %d edges", h.NumVertices(), h.NumEdges())
	}
	if got := h.VertexDegree(2); got != 2 {
		t.Errorf("VertexDegree(2) = %d, want 2", got)
	}
	if got := h.IncidentEdges(4); len(got) != 1 || got[0] != 1 {
		t.Errorf("IncidentEdges(4) = %v", got)
	}
	if k, uniform := h.IsUniform(); uniform {
		t.Errorf("hypergraph should not be uniform, got k=%d", k)
	}
}

func TestIsSimpleAndDual(t *testing.T) {
	h := hypergraph.New()
	h.MustAddEdge([]graph.VertexID{1, 2})
	h.MustAddEdge([]graph.VertexID{2, 3})
	if !h.IsSimple() {
		t.Error("no edge is a subset of another; hypergraph should be simple")
	}
	h.MustAddEdge([]graph.VertexID{1, 2, 3})
	if h.IsSimple() {
		t.Error("edge {1,2} is a subset of {1,2,3}; hypergraph should not be simple")
	}
	// Vertex 2 appears in all three edges: the dual edge X_2 of Definition
	// 3.1.2, which the solvers read as an incidence list.
	if got := h.IncidentEdges(2); len(got) != 3 {
		t.Errorf("edges incident to vertex 2 = %v, want all three", got)
	}
	if _, uniform := hypergraph.New().IsUniform(); !uniform {
		t.Error("empty hypergraph is trivially uniform")
	}
}

func TestMinimumVertexCoverFigure6(t *testing.T) {
	h := figure6Hypergraph()
	res := h.MinimumVertexCover(0)
	if !res.Exact || res.Size != 2 {
		t.Fatalf("MVC = %+v, want exact size 2", res)
	}
	if err := h.ValidateCover(res.Cover); err != nil {
		t.Errorf("returned cover invalid: %v", err)
	}
	greedy := h.GreedyVertexCover()
	if !h.IsVertexCover(greedy.Cover) {
		t.Error("greedy cover is not a cover")
	}
	if greedy.Size < res.Size {
		t.Errorf("greedy cover %d smaller than optimum %d", greedy.Size, res.Size)
	}
	matching := h.MatchingVertexCover()
	if !h.IsVertexCover(matching.Cover) {
		t.Error("matching cover is not a cover")
	}
	if k, _ := h.IsUniform(); matching.Size > k*res.Size {
		t.Errorf("matching cover %d exceeds k*OPT = %d", matching.Size, k*res.Size)
	}
}

func TestVertexCoverEmptyAndValidate(t *testing.T) {
	h := hypergraph.New()
	if res := h.MinimumVertexCover(0); res.Size != 0 || !res.Exact {
		t.Errorf("empty MVC = %+v", res)
	}
	if res := h.GreedyVertexCover(); res.Size != 0 {
		t.Errorf("empty greedy cover = %+v", res)
	}
	if res := h.MatchingVertexCover(); res.Size != 0 {
		t.Errorf("empty matching cover = %+v", res)
	}
	h.MustAddEdge([]graph.VertexID{1, 2})
	if err := h.ValidateCover(nil); err == nil {
		t.Error("empty set should not cover a non-empty hypergraph")
	}
	if !h.IsVertexCover([]graph.VertexID{2}) {
		t.Error("{2} covers the single edge")
	}
}

func TestMaximumIndependentEdgeSetFigure6(t *testing.T) {
	h := figure6Hypergraph()
	res := h.MaximumIndependentEdgeSet(0)
	if !res.Exact || res.Size != 2 {
		t.Fatalf("MIES = %+v, want exact size 2", res)
	}
	if !h.IsIndependentEdgeSet(res.Edges) {
		t.Error("returned packing is not vertex disjoint")
	}
	greedy := h.GreedyIndependentEdgeSet()
	if !h.IsIndependentEdgeSet(greedy.Edges) {
		t.Error("greedy packing is not vertex disjoint")
	}
	if greedy.Size > res.Size {
		t.Errorf("greedy packing %d exceeds optimum %d", greedy.Size, res.Size)
	}
	if h.IsIndependentEdgeSet([]hypergraph.EdgeID{0, 1}) {
		t.Error("edges {1,5} and {1,6} share vertex 1")
	}
	if h.IsIndependentEdgeSet([]hypergraph.EdgeID{99}) {
		t.Error("unknown edge id should invalidate the set")
	}
}

func TestOverlapGraphAndMIS(t *testing.T) {
	h := figure6Hypergraph()
	og := hypergraph.NewOverlapGraph(h, nil)
	if og.NumVertices() != 7 {
		t.Fatalf("overlap graph has %d vertices, want 7", og.NumVertices())
	}
	// Edges 0..3 pairwise overlap on vertex 1 -> a clique of size 4; edges
	// 3..6 overlap on vertex 8 -> a clique of size 4; total edges 6+6 = 12.
	if og.NumEdges() != 12 {
		t.Errorf("overlap graph has %d edges, want 12", og.NumEdges())
	}
	if og.HasEdge(0, 0) || og.HasEdge(0, 99) {
		t.Error("HasEdge must reject the diagonal and out-of-range queries")
	}
	mis := og.MaximumIndependentSet(0)
	if !mis.Exact || mis.Size != 2 {
		t.Fatalf("MIS = %+v, want exact 2", mis)
	}
	if !og.IsIndependentSet(mis.Members) {
		t.Error("MIS members are not independent")
	}
	greedy := og.GreedyIndependentSet()
	if !og.IsIndependentSet(greedy.Members) {
		t.Error("greedy members are not independent")
	}
	if greedy.Size > mis.Size {
		t.Errorf("greedy independent set %d exceeds maximum %d", greedy.Size, mis.Size)
	}
	mcp := og.GreedyCliquePartition()
	if mcp.Size < mis.Size {
		t.Errorf("clique partition size %d below MIS %d", mcp.Size, mis.Size)
	}
	covered := 0
	for _, clique := range mcp.Cliques {
		covered += len(clique)
		for i := 0; i < len(clique); i++ {
			for j := i + 1; j < len(clique); j++ {
				if !og.HasEdge(clique[i], clique[j]) {
					t.Errorf("partition class %v is not a clique", clique)
				}
			}
		}
	}
	if covered != og.NumVertices() {
		t.Errorf("clique partition covers %d of %d vertices", covered, og.NumVertices())
	}
}

func TestCustomOverlapPredicate(t *testing.T) {
	h := figure6Hypergraph()
	// A predicate that never reports overlap yields an edgeless overlap graph
	// whose MIS is every vertex.
	og := hypergraph.NewOverlapGraph(h, func(a, b hypergraph.EdgeID) bool { return false })
	if og.NumEdges() != 0 {
		t.Fatalf("expected no overlap edges, got %d", og.NumEdges())
	}
	mis := og.MaximumIndependentSet(0)
	if mis.Size != 7 {
		t.Errorf("MIS on edgeless overlap graph = %d, want 7", mis.Size)
	}
	empty := hypergraph.NewOverlapGraph(hypergraph.New(), nil)
	if res := empty.MaximumIndependentSet(0); res.Size != 0 || !res.Exact {
		t.Errorf("empty overlap graph MIS = %+v", res)
	}
	if res := empty.GreedyIndependentSet(); res.Size != 0 {
		t.Errorf("empty greedy = %+v", res)
	}
}

func TestTruncatedSearchStaysValid(t *testing.T) {
	h := randomUniformHypergraph(9, 3, 30, 60)
	res := h.MinimumVertexCover(5) // tiny budget forces truncation
	if res.Exact {
		t.Skip("search unexpectedly completed within 5 nodes; nothing to check")
	}
	if err := h.ValidateCover(res.Cover); err != nil {
		t.Errorf("truncated cover is invalid: %v", err)
	}
	pack := h.MaximumIndependentEdgeSet(5)
	if !h.IsIndependentEdgeSet(pack.Edges) {
		t.Error("truncated packing is not independent")
	}
	if greedy := h.GreedyIndependentEdgeSet(); pack.Size < greedy.Size {
		t.Errorf("truncated packing %d is below the greedy packing %d", pack.Size, greedy.Size)
	}
}

// TestCoverPackingDuality is the weak-duality property test on random
// uniform hypergraphs: every independent edge set is at most every vertex
// cover, and the exact solvers respect greedy bounds.
func TestCoverPackingDuality(t *testing.T) {
	property := func(seed uint64) bool {
		k := 2 + int(seed%3)
		h := randomUniformHypergraph(seed, k, 10+int(seed%10), 8+int(seed%12))
		cover := h.MinimumVertexCover(0)
		pack := h.MaximumIndependentEdgeSet(0)
		if !cover.Exact || !pack.Exact {
			return true // budget-free runs should be exact, but don't fail on it here
		}
		if pack.Size > cover.Size {
			t.Logf("seed %d: packing %d > cover %d", seed, pack.Size, cover.Size)
			return false
		}
		if err := h.ValidateCover(cover.Cover); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !h.IsIndependentEdgeSet(pack.Edges) {
			return false
		}
		greedyCover := h.GreedyVertexCover()
		matchingCover := h.MatchingVertexCover()
		greedyPack := h.GreedyIndependentEdgeSet()
		if greedyCover.Size < cover.Size || matchingCover.Size < cover.Size {
			t.Logf("seed %d: heuristic cover below optimum", seed)
			return false
		}
		if greedyPack.Size > pack.Size {
			t.Logf("seed %d: greedy packing above optimum", seed)
			return false
		}
		// k-approximation guarantee of the matching cover.
		if matchingCover.Size > k*cover.Size {
			t.Logf("seed %d: matching cover %d exceeds k*OPT %d", seed, matchingCover.Size, k*cover.Size)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMISEqualsMIES verifies Theorem 4.1 computationally on random
// hypergraphs: the maximum independent set of the simple-overlap graph equals
// the maximum independent edge set of the hypergraph.
func TestMISEqualsMIES(t *testing.T) {
	property := func(seed uint64) bool {
		h := randomUniformHypergraph(seed, 2+int(seed%2), 14, 12)
		mies := h.MaximumIndependentEdgeSet(0)
		og := hypergraph.NewOverlapGraph(h, nil)
		mis := og.MaximumIndependentSet(0)
		if !mies.Exact || !mis.Exact {
			return true
		}
		if mies.Size != mis.Size {
			t.Logf("seed %d: MIES %d != MIS %d", seed, mies.Size, mis.Size)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
