package pattern_test

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

func trianglePattern() *pattern.Pattern {
	g := graph.NewBuilder("triangle").Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild()
	return pattern.MustNew(g)
}

func pathPattern(labels ...graph.Label) *pattern.Pattern {
	b := graph.NewBuilder("path")
	ids := make([]graph.VertexID, len(labels))
	for i, l := range labels {
		ids[i] = graph.VertexID(i)
		b.Vertex(ids[i], l)
	}
	b.Path(ids...)
	return pattern.MustNew(b.MustBuild())
}

func TestNewPatternValidation(t *testing.T) {
	if _, err := pattern.New(graph.New("empty")); err == nil {
		t.Error("empty graph should not be a valid pattern")
	}
	disconnected := graph.NewBuilder("disc").Vertices(1, 0, 1, 2).Edge(0, 1).MustBuild()
	if _, err := pattern.New(disconnected); err == nil {
		t.Error("disconnected graph should not be a valid pattern")
	}
	p := trianglePattern()
	if p.Size() != 3 || p.NumEdges() != 3 {
		t.Errorf("triangle pattern size=%d edges=%d", p.Size(), p.NumEdges())
	}
	if p.LabelOf(0) != 1 {
		t.Errorf("LabelOf(0) = %d", p.LabelOf(0))
	}
}

func TestSingleEdge(t *testing.T) {
	p := pattern.SingleEdge(3, 1)
	if p.Size() != 2 || p.NumEdges() != 1 {
		t.Fatalf("unexpected single edge pattern %v", p)
	}
	labels := map[graph.Label]bool{p.LabelOf(0): true, p.LabelOf(1): true}
	if !labels[1] || !labels[3] {
		t.Errorf("labels = %v", labels)
	}
}

func TestCanonicalCodeInvariance(t *testing.T) {
	// The same shape with permuted vertex IDs must produce the same code.
	a := graph.NewBuilder("a").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).
		Path(0, 1, 2).
		MustBuild()
	b := graph.NewBuilder("b").
		Vertex(10, 2).Vertex(20, 1).Vertex(30, 2).
		Path(30, 10, 20). // same shape: label-2 end, label-2 middle? (permuted)
		MustBuild()
	pa, pb := pattern.MustNew(a), pattern.MustNew(b)
	if pa.CanonicalCode() != pb.CanonicalCode() {
		t.Errorf("isomorphic patterns got different codes:\n%s\n%s", pa.CanonicalCode(), pb.CanonicalCode())
	}
	if !pa.IsIsomorphicTo(pb) {
		t.Error("IsIsomorphicTo should report true for isomorphic patterns")
	}
	// A genuinely different labeling must produce a different code.
	c := pathPattern(1, 1, 2)
	if pa.IsIsomorphicTo(c) {
		t.Error("patterns with different label multisets must not be isomorphic")
	}
	// Different shapes with the same labels must differ too.
	tri := trianglePattern()
	samePath := pathPattern(1, 1, 1)
	if tri.IsIsomorphicTo(samePath) {
		t.Error("triangle and path must not be isomorphic")
	}
}

func TestConnectedSubsets(t *testing.T) {
	p := pathPattern(1, 2, 2)
	singles := p.ConnectedSubsets(1)
	if len(singles) != 3 {
		t.Errorf("size-1 subsets = %d, want 3", len(singles))
	}
	pairs := p.ConnectedSubsets(2)
	if len(pairs) != 2 { // {0,1} and {1,2}; {0,2} is not connected
		t.Errorf("size-2 subsets = %v, want 2 subsets", pairs)
	}
	triples := p.ConnectedSubsets(3)
	if len(triples) != 1 {
		t.Errorf("size-3 subsets = %v, want 1", triples)
	}
	if got := p.ConnectedSubsets(0); got != nil {
		t.Errorf("size-0 subsets should be nil, got %v", got)
	}
	if got := p.ConnectedSubsets(4); got != nil {
		t.Errorf("oversized subsets should be nil, got %v", got)
	}
	all := p.AllConnectedSubsets()
	if len(all) != 6 {
		t.Errorf("AllConnectedSubsets = %d, want 6", len(all))
	}
	tri := trianglePattern()
	if got := len(tri.ConnectedSubsets(2)); got != 3 {
		t.Errorf("triangle size-2 subsets = %d, want 3", got)
	}
}

func TestSubpattern(t *testing.T) {
	p := trianglePattern()
	sub, err := p.Subpattern([]pattern.NodeID{0, 1})
	if err != nil {
		t.Fatalf("Subpattern: %v", err)
	}
	if sub.NumVertices() != 2 || sub.NumEdges() != 1 {
		t.Errorf("subpattern = %v", sub)
	}
	if _, err := p.Subpattern([]pattern.NodeID{0, 99}); err == nil {
		t.Error("expected error for unknown node")
	}
}

func TestExtend(t *testing.T) {
	p := pattern.SingleEdge(1, 1)
	exts := p.Extend([]graph.Label{1, 2})
	// Expected extensions up to isomorphism: attach a new 1-labeled node,
	// attach a new 2-labeled node. (No internal edge possible on 2 nodes.)
	if len(exts) != 2 {
		t.Fatalf("got %d extensions, want 2: %+v", len(exts), exts)
	}
	for _, ext := range exts {
		if ext.Kind != "vertex" {
			t.Errorf("unexpected extension kind %q", ext.Kind)
		}
		if ext.Result.Size() != 3 || ext.Result.NumEdges() != 2 {
			t.Errorf("extension result has wrong shape: %v", ext.Result)
		}
		// Node IDs must be dense 0..k-1.
		for i, n := range ext.Result.Nodes() {
			if int(n) != i {
				t.Errorf("extension result nodes not dense: %v", ext.Result.Nodes())
			}
		}
	}

	// Extending the 3-path with an internal edge must yield the triangle.
	path := pathPattern(1, 1, 1)
	exts = path.Extend([]graph.Label{1})
	foundTriangle := false
	for _, ext := range exts {
		if ext.Kind == "edge" && ext.Result.NumEdges() == 3 && ext.Result.Size() == 3 {
			foundTriangle = true
		}
	}
	if !foundTriangle {
		t.Error("expected an internal-edge extension forming a triangle")
	}
}

func TestExtendDeduplicatesIsomorphs(t *testing.T) {
	// The two ends of the symmetric path produce isomorphic extensions; they
	// must be reported only once.
	path := pathPattern(1, 2, 1)
	exts := path.Extend([]graph.Label{1})
	codes := make(map[string]int)
	for _, e := range exts {
		codes[e.Result.CanonicalCode()]++
	}
	for code, count := range codes {
		if count > 1 {
			t.Errorf("extension code %q reported %d times", code, count)
		}
	}
}

// TestCanonicalCodeRandomizedInvariance shuffles vertex IDs of random
// patterns and verifies the canonical code does not change.
func TestCanonicalCodeRandomizedInvariance(t *testing.T) {
	property := func(seed uint64) bool {
		rng := gen.NewRNG(seed)
		// Build a small random connected pattern (3-5 nodes).
		k := 3 + rng.Intn(3)
		b := graph.NewBuilder("rand")
		for i := 0; i < k; i++ {
			b.Vertex(graph.VertexID(i), graph.Label(1+rng.Intn(2)))
		}
		// Spanning path plus random extra edges keeps it connected.
		for i := 0; i+1 < k; i++ {
			b.Edge(graph.VertexID(i), graph.VertexID(i+1))
		}
		g := b.MustBuild()
		for i := 0; i < k; i++ {
			for j := i + 2; j < k; j++ {
				if rng.Float64() < 0.3 {
					g.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
				}
			}
		}
		p := pattern.MustNew(g)

		// Relabel with a random permutation of fresh IDs.
		perm := rng.Perm(k)
		shuffled := graph.New("shuffled")
		for i := 0; i < k; i++ {
			shuffled.MustAddVertex(graph.VertexID(100+perm[i]), g.MustLabelOf(graph.VertexID(i)))
		}
		for _, e := range g.Edges() {
			shuffled.MustAddEdge(graph.VertexID(100+perm[int(e.U)]), graph.VertexID(100+perm[int(e.V)]))
		}
		q := pattern.MustNew(shuffled)
		return p.CanonicalCode() == q.CanonicalCode()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAccessorsOnSparseIDs reads a pattern whose node IDs are neither dense
// nor all positive through every accessor, unknown nodes included.
func TestAccessorsOnSparseIDs(t *testing.T) {
	g := graph.NewBuilder("kite").
		Vertex(-3, 7).Vertex(4, 10).Vertex(9, 7).Vertex(20, -1).
		Cycle(-3, 4, 9).Edge(9, 20).
		MustBuild()
	p := pattern.MustNew(g)

	if got := p.Nodes(); len(got) != 4 || got[0] != -3 || got[1] != 4 || got[2] != 9 || got[3] != 20 {
		t.Errorf("Nodes() = %v", got)
	}
	wantEdges := []graph.Edge{{U: -3, V: 4}, {U: -3, V: 9}, {U: 4, V: 9}, {U: 9, V: 20}}
	if got := p.Edges(); len(got) != len(wantEdges) {
		t.Errorf("Edges() = %v, want %v", got, wantEdges)
	} else {
		for i := range got {
			if got[i] != wantEdges[i] {
				t.Errorf("Edges() = %v, want %v", got, wantEdges)
				break
			}
		}
	}
	if p.LabelOf(4) != 10 || p.LabelOf(20) != -1 || p.LabelOf(-3) != 7 {
		t.Errorf("labels: %d %d %d", p.LabelOf(4), p.LabelOf(20), p.LabelOf(-3))
	}
	for v, want := range map[pattern.NodeID]int{-3: 2, 4: 2, 9: 3, 20: 1, 5: 0, 0: 0} {
		if got := p.Degree(v); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if !p.HasEdge(20, 9) || !p.HasEdge(-3, 9) || p.HasEdge(20, 4) || p.HasEdge(9, 9) || p.HasEdge(9, 1) {
		t.Error("HasEdge disagrees with the graph")
	}
	if nbs := p.Neighbors(9); len(nbs) != 3 || nbs[0] != -3 || nbs[1] != 4 || nbs[2] != 20 {
		t.Errorf("Neighbors(9) = %v", nbs)
	}
	if nbs := p.Neighbors(1); nbs != nil {
		t.Errorf("Neighbors of an unknown node = %v", nbs)
	}
	if view := p.Graph(); !view.Equal(g) || view.Name() != "kite" || view != p.Graph() {
		t.Errorf("Graph() = %v, want a memoised copy of %v", view, g)
	}
	defer func() {
		if recover() == nil {
			t.Error("LabelOf an unknown node should panic")
		}
	}()
	p.LabelOf(1)
}

// TestWidePattern builds a pattern with more nodes than one bitset word
// holds; only a path with distinct labels keeps its code cheap.
func TestWidePattern(t *testing.T) {
	const k = 70
	b := graph.NewBuilder("wide")
	ids := make([]graph.VertexID, k)
	for i := range ids {
		ids[i] = graph.VertexID(i)
		b.Vertex(ids[i], graph.Label(i+1))
	}
	p := pattern.MustNew(b.Path(ids...).MustBuild())
	if p.Size() != k || p.NumEdges() != k-1 || p.Degree(64) != 2 || !p.HasEdge(64, 65) || p.HasEdge(0, 69) {
		t.Fatalf("wide path misread: %d nodes, %d edges", p.Size(), p.NumEdges())
	}
	exts := p.Extend([]graph.Label{1})
	if len(exts) != p.GrowSteps(1) { // distinct labels: no two steps are isomorphic
		t.Errorf("%d extensions of %d grow steps", len(exts), p.GrowSteps(1))
	}
	last := exts[len(exts)-1]
	if last.Kind != "vertex" || last.From != 69 || last.To != 70 || last.Result.Size() != k+1 || !last.Result.HasEdge(69, 70) {
		t.Errorf("last extension: %+v", last)
	}
	if _, err := pattern.New(b.Vertex(99, 1).MustBuild()); err == nil {
		t.Error("an isolated extra node should make the wide pattern disconnected")
	}
}
