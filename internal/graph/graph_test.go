package graph_test

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func buildHouse(t *testing.T) *graph.Graph {
	t.Helper()
	// A "house": square 1-2-3-4 with a roof vertex 5 on top of 3-4.
	g, err := graph.NewBuilder("house").
		Vertex(1, 1).Vertex(2, 1).Vertex(3, 2).Vertex(4, 2).Vertex(5, 3).
		Cycle(1, 2, 3, 4).
		Edge(3, 5).Edge(4, 5).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := buildHouse(t)
	if got, want := g.NumVertices(), 5; got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 6; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge should be orientation independent")
	}
	if g.HasEdge(1, 3) {
		t.Error("HasEdge(1,3) should be false")
	}
	if l, ok := g.LabelOf(5); !ok || l != 3 {
		t.Errorf("LabelOf(5) = %v, %v", l, ok)
	}
	if _, ok := g.LabelOf(42); ok {
		t.Error("LabelOf(42) should report absence")
	}
	if got := g.Degree(3); got != 3 {
		t.Errorf("Degree(3) = %d, want 3", got)
	}
	if got := g.Neighbors(5); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("Neighbors(5) = %v, want [3 4]", got)
	}
	if got := g.VerticesWithLabel(1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("VerticesWithLabel(1) = %v", got)
	}
	if got := g.Labels(); len(got) != 3 {
		t.Errorf("Labels() = %v, want 3 labels", got)
	}
	hist := g.LabelHistogram()
	if hist[1] != 2 || hist[2] != 2 || hist[3] != 1 {
		t.Errorf("LabelHistogram = %v", hist)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGraphErrors(t *testing.T) {
	g := graph.New("errors")
	if err := g.AddVertex(1, 1); err != nil {
		t.Fatalf("AddVertex: %v", err)
	}
	if err := g.AddVertex(1, 1); err != nil {
		t.Errorf("re-adding identical vertex should be a no-op, got %v", err)
	}
	if err := g.AddVertex(1, 2); err == nil {
		t.Error("expected error when re-adding vertex with different label")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("expected error for self loop")
	}
	if err := g.AddEdge(1, 99); err == nil {
		t.Error("expected error for edge to missing vertex")
	}
	if err := g.AddVertex(2, 1); err != nil {
		t.Fatalf("AddVertex: %v", err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(2, 1); err == nil {
		t.Error("expected error for duplicate edge (reversed)")
	}
}

func TestEdgeHelpers(t *testing.T) {
	e := graph.Edge{U: 7, V: 3}
	n := e.Normalize()
	if n.U != 3 || n.V != 7 {
		t.Errorf("Normalize = %v", n)
	}
	if e.Other(7) != 3 || e.Other(3) != 7 {
		t.Error("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other with a non-endpoint should panic")
		}
	}()
	_ = e.Other(5)
}

func TestCloneAndEqual(t *testing.T) {
	g := buildHouse(t)
	c := g.Clone()
	if !g.Equal(c) || !c.Equal(g) {
		t.Fatal("clone should be equal to the original")
	}
	c.MustAddVertex(6, 1)
	if g.Equal(c) {
		t.Error("graphs with different vertex counts must not be equal")
	}
	d := g.Clone()
	d.MustAddVertex(6, 1)
	d.MustAddEdge(5, 6)
	if g.Equal(d) {
		t.Error("graphs with different edges must not be equal")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildHouse(t)
	sub, err := g.InducedSubgraph([]graph.VertexID{3, 4, 5})
	if err != nil {
		t.Fatalf("InducedSubgraph: %v", err)
	}
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Errorf("induced subgraph has %d vertices, %d edges; want 3, 3", sub.NumVertices(), sub.NumEdges())
	}
	if _, err := g.InducedSubgraph([]graph.VertexID{1, 99}); err == nil {
		t.Error("expected error for unknown vertex in induced subgraph")
	}
	// Duplicate vertices are tolerated.
	dup, err := g.InducedSubgraph([]graph.VertexID{1, 1, 2})
	if err != nil || dup.NumVertices() != 2 {
		t.Errorf("duplicate-tolerant induced subgraph: %v %v", dup, err)
	}
}

func TestBuilderShapes(t *testing.T) {
	g, err := graph.NewBuilder("shapes").
		Vertices(1, 0, 1, 2, 3, 4, 5).
		Path(0, 1, 2).
		Star(3, 4, 5).
		Edge(2, 3).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", g.NumEdges())
	}
	if _, err := graph.NewBuilder("bad").Vertex(0, 1).Cycle(0).Build(); err == nil {
		t.Error("cycle with fewer than 3 vertices should error")
	}
	if _, err := graph.NewBuilder("bad2").Edge(0, 1).Build(); err == nil {
		t.Error("edge between missing vertices should error")
	}
	clique := graph.NewBuilder("clique").Vertices(1, 0, 1, 2, 3).Clique(0, 1, 2, 3).MustBuild()
	if clique.NumEdges() != 6 {
		t.Errorf("clique edges = %d, want 6", clique.NumEdges())
	}
}

func TestBuilderErrorPropagation(t *testing.T) {
	b := graph.NewBuilder("err").Vertex(0, 1).Vertex(0, 2) // conflicting label
	if b.Err() == nil {
		t.Fatal("expected builder error")
	}
	// Further calls must keep the first error and not panic.
	b.Edge(0, 1).Path(0, 1, 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should return the accumulated error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on error")
		}
	}()
	b.MustBuild()
}

func TestConnectedComponents(t *testing.T) {
	g := graph.NewBuilder("components").
		Vertices(1, 1, 2, 3, 4, 5, 6).
		Edge(1, 2).Edge(2, 3).
		Edge(4, 5).
		MustBuild()
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes = %d %d %d", len(comps[0]), len(comps[1]), len(comps[2]))
	}
	if g.IsConnected() {
		t.Error("graph should not be connected")
	}
	if !graph.New("empty").IsConnected() {
		t.Error("empty graph should count as connected")
	}
}

func TestDegreeStatisticsAndDensity(t *testing.T) {
	g := buildHouse(t)
	stats := g.DegreeStatistics()
	if stats.Min != 2 || stats.Max != 3 {
		t.Errorf("degree min/max = %d/%d, want 2/3", stats.Min, stats.Max)
	}
	if stats.Histogram[2]+stats.Histogram[3] != 5 {
		t.Errorf("histogram does not cover all vertices: %v", stats.Histogram)
	}
	wantMean := 12.0 / 5.0
	if diff := stats.Mean - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean = %v, want %v", stats.Mean, wantMean)
	}
	if g.Density() <= 0 || g.Density() > 1 {
		t.Errorf("density = %v out of range", g.Density())
	}
	empty := graph.New("empty")
	if empty.Density() != 0 {
		t.Errorf("empty density = %v", empty.Density())
	}
	es := empty.DegreeStatistics()
	if es.Min != 0 || es.Max != 0 || es.Mean != 0 {
		t.Errorf("empty degree stats = %+v", es)
	}
}

// TestRandomGraphInvariants is a property-based check over generated graphs:
// handshake lemma, internal consistency and clone equality hold for any seed.
func TestRandomGraphInvariants(t *testing.T) {
	property := func(seed uint64) bool {
		g := gen.ErdosRenyi(40, 0.1, gen.UniformLabels{K: 3}, seed)
		if err := g.Validate(); err != nil {
			t.Logf("validate failed: %v", err)
			return false
		}
		total := 0
		for _, v := range g.Vertices() {
			total += g.Degree(v)
		}
		if total != 2*g.NumEdges() {
			t.Logf("handshake lemma violated: %d != 2*%d", total, g.NumEdges())
			return false
		}
		if !g.Clone().Equal(g) {
			t.Log("clone not equal")
			return false
		}
		labelTotal := 0
		for _, count := range g.LabelHistogram() {
			labelTotal += count
		}
		return labelTotal == g.NumVertices()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestInducedSubgraphProperty checks that induced subgraphs never contain
// edges missing from the parent and preserve labels, for random subsets of
// random graphs.
func TestInducedSubgraphProperty(t *testing.T) {
	property := func(seed uint64) bool {
		g := gen.BarabasiAlbert(30, 2, gen.UniformLabels{K: 2}, seed)
		rng := gen.NewRNG(seed ^ 0xABCD)
		var subset []graph.VertexID
		for _, v := range g.Vertices() {
			if rng.Float64() < 0.4 {
				subset = append(subset, v)
			}
		}
		if len(subset) == 0 {
			return true
		}
		sub, err := g.InducedSubgraph(subset)
		if err != nil {
			return false
		}
		for _, e := range sub.Edges() {
			if !g.HasEdge(e.U, e.V) {
				return false
			}
		}
		for _, v := range sub.Vertices() {
			if sub.MustLabelOf(v) != g.MustLabelOf(v) {
				return false
			}
		}
		return sub.Validate() == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
