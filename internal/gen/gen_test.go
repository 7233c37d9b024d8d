package gen_test

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestRNGDeterminismAndRange(t *testing.T) {
	a := gen.NewRNG(42)
	b := gen.NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := gen.NewRNG(43)
	same := 0
	a = gen.NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds produced %d identical values out of 1000", same)
	}
	r := gen.NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGPermAndShuffle(t *testing.T) {
	r := gen.NewRNG(1)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	vals := []int{1, 2, 3, 4, 5}
	sum := 0
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for _, v := range vals {
		sum += v
	}
	if sum != 15 {
		t.Errorf("shuffle lost elements: %v", vals)
	}
}

func TestLabelModels(t *testing.T) {
	r := gen.NewRNG(3)
	uni := gen.UniformLabels{K: 4}
	if len(uni.Alphabet()) != 4 {
		t.Errorf("alphabet = %v", uni.Alphabet())
	}
	counts := map[graph.Label]int{}
	for i := 0; i < 4000; i++ {
		l := uni.Label(i, 4000, r)
		if l < 1 || l > 4 {
			t.Fatalf("uniform label out of range: %d", l)
		}
		counts[l]++
	}
	for l, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("uniform label %d count %d is far from 1000", l, c)
		}
	}
	// Degenerate K values fall back to a single label.
	if l := (gen.UniformLabels{K: 0}).Label(0, 1, r); l != 1 {
		t.Errorf("K=0 uniform label = %d", l)
	}

	zipf := gen.ZipfLabels{K: 5, Exponent: 1.5}
	zcounts := map[graph.Label]int{}
	for i := 0; i < 4000; i++ {
		l := zipf.Label(i, 4000, r)
		if l < 1 || l > 5 {
			t.Fatalf("zipf label out of range: %d", l)
		}
		zcounts[l]++
	}
	if zcounts[1] <= zcounts[5] {
		t.Errorf("zipf label 1 (%d) should be more frequent than label 5 (%d)", zcounts[1], zcounts[5])
	}
	if len(zipf.Alphabet()) != 5 {
		t.Errorf("zipf alphabet = %v", zipf.Alphabet())
	}
	// Exponent <= 0 defaults to 1 and must not panic.
	_ = gen.ZipfLabels{K: 3}.Label(0, 1, r)
}

func TestErdosRenyi(t *testing.T) {
	g := gen.ErdosRenyi(100, 0.05, gen.UniformLabels{K: 3}, 11)
	if g.NumVertices() != 100 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected edges = p * C(100,2) = 247.5; allow a generous window.
	if g.NumEdges() < 150 || g.NumEdges() > 350 {
		t.Errorf("edge count %d far from expectation 247", g.NumEdges())
	}
	// Determinism.
	h := gen.ErdosRenyi(100, 0.05, gen.UniformLabels{K: 3}, 11)
	if !g.Equal(h) {
		t.Error("same seed must reproduce the same graph")
	}
	other := gen.ErdosRenyi(100, 0.05, gen.UniformLabels{K: 3}, 12)
	if g.Equal(other) {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	n, m := 120, 3
	g := gen.BarabasiAlbert(n, m, gen.UniformLabels{K: 2}, 9)
	if g.NumVertices() != n {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Error("preferential attachment graph should be connected")
	}
	// Expected edges: seed clique C(m+1,2) + m*(n-m-1).
	want := (m+1)*m/2 + m*(n-m-1)
	if g.NumEdges() != want {
		t.Errorf("edges = %d, want %d", g.NumEdges(), want)
	}
	stats := g.DegreeStatistics()
	if stats.Max < 3*m {
		t.Errorf("expected heavy-tailed degrees, max = %d", stats.Max)
	}
	if g.NumVertices() != gen.BarabasiAlbert(n, m, gen.UniformLabels{K: 2}, 9).NumVertices() {
		t.Error("determinism violated")
	}
	// Degenerate sizes must not panic.
	if tiny := gen.BarabasiAlbert(2, 3, gen.UniformLabels{K: 1}, 1); tiny.NumVertices() != 2 {
		t.Errorf("tiny BA graph = %v", tiny)
	}
	if empty := gen.BarabasiAlbert(0, 2, gen.UniformLabels{K: 1}, 1); empty.NumVertices() != 0 {
		t.Errorf("empty BA graph = %v", empty)
	}
}

func TestRandomGeometricAndGrid(t *testing.T) {
	g := gen.RandomGeometric(80, 0.2, gen.UniformLabels{K: 2}, 4)
	if g.NumVertices() != 80 || g.Validate() != nil {
		t.Fatalf("geometric graph invalid: %v", g)
	}
	dense := gen.RandomGeometric(40, 1.5, gen.UniformLabels{K: 1}, 4)
	if dense.NumEdges() != 40*39/2 {
		t.Errorf("radius > sqrt(2) should give a complete graph, got %d edges", dense.NumEdges())
	}

	grid := gen.Grid(4, 5, gen.UniformLabels{K: 2}, 1)
	if grid.NumVertices() != 20 {
		t.Fatalf("grid vertices = %d", grid.NumVertices())
	}
	// Edges: 4*(5-1) horizontal + (4-1)*5 vertical = 16 + 15.
	if grid.NumEdges() != 31 {
		t.Errorf("grid edges = %d, want 31", grid.NumEdges())
	}
	if !grid.IsConnected() {
		t.Error("grid should be connected")
	}
}

func TestStarOverlapAndCliqueChain(t *testing.T) {
	star := gen.StarOverlap(4, 3, 1)
	if err := star.Validate(); err != nil {
		t.Fatal(err)
	}
	// hubs*leaves private leaves + hubs hubs + 1 shared leaf.
	if star.NumVertices() != 4+4*3+1 {
		t.Errorf("star vertices = %d", star.NumVertices())
	}
	if star.NumEdges() != 4*3+4 {
		t.Errorf("star edges = %d", star.NumEdges())
	}
	labels := star.LabelHistogram()
	if labels[1] != 4 || labels[2] != 13 {
		t.Errorf("star labels = %v", labels)
	}
	// Degenerate parameters clamp to 1.
	if tiny := gen.StarOverlap(0, 0, 1); tiny.NumVertices() != 1+1+1 {
		t.Errorf("clamped star = %v", tiny)
	}

	cliques := gen.CliqueChain(3, 4, 1)
	if err := cliques.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 cliques of 4 sharing one vertex pairwise: 4 + 3 + 3 vertices.
	if cliques.NumVertices() != 10 {
		t.Errorf("clique chain vertices = %d", cliques.NumVertices())
	}
	if got := triangles(cliques); got != 3*4 {
		t.Errorf("clique chain triangles = %d, want 12", got)
	}
	if !cliques.IsConnected() {
		t.Error("clique chain should be connected")
	}
	if tiny := gen.CliqueChain(0, 1, 1); tiny.NumVertices() != 2 {
		t.Errorf("clamped clique chain = %v", tiny)
	}
}

func TestPresets(t *testing.T) {
	for _, p := range []gen.Preset{gen.PresetCitation, gen.PresetProtein, gen.PresetSocial} {
		g, err := gen.FromPreset(p, 200, 3)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if g.NumVertices() != 200 {
			t.Errorf("%s: vertices = %d", p, g.NumVertices())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	if _, err := gen.FromPreset("no-such-preset", 10, 1); err == nil {
		t.Error("unknown preset should error")
	}
}

// TestGeneratorDeterminismProperty: every generator must be a pure function
// of its parameters and seed.
func TestGeneratorDeterminismProperty(t *testing.T) {
	property := func(seed uint64) bool {
		a := gen.BarabasiAlbert(40, 2, gen.ZipfLabels{K: 4, Exponent: 1.1}, seed)
		b := gen.BarabasiAlbert(40, 2, gen.ZipfLabels{K: 4, Exponent: 1.1}, seed)
		if !a.Equal(b) {
			return false
		}
		c := gen.RandomGeometric(30, 0.25, gen.UniformLabels{K: 2}, seed)
		d := gen.RandomGeometric(30, 0.25, gen.UniformLabels{K: 2}, seed)
		return c.Equal(d)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDoubleStar(t *testing.T) {
	g := gen.DoubleStar(5, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 hub + 5 private leaves + 1 shared leaf + 5 extra hubs.
	if g.NumVertices() != 12 {
		t.Errorf("vertices = %d, want 12", g.NumVertices())
	}
	if g.NumEdges() != 11 {
		t.Errorf("edges = %d, want 11", g.NumEdges())
	}
	labels := g.LabelHistogram()
	if labels[1] != 6 || labels[2] != 6 {
		t.Errorf("labels = %v", labels)
	}
	if clamped := gen.DoubleStar(0, 1); clamped.NumVertices() != 4 {
		t.Errorf("clamped double star vertices = %d, want 4", clamped.NumVertices())
	}
}

// triangles counts the 3-cycles of g: for every edge, the common neighbours of
// its endpoints, each triangle met once per edge.
func triangles(g *graph.Graph) int {
	count := 0
	for _, e := range g.Edges() {
		for _, w := range g.Neighbors(e.U) {
			if g.HasEdge(w, e.V) {
				count++
			}
		}
	}
	return count / 3
}
