package isomorph_test

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

func trianglePattern(label graph.Label) *pattern.Pattern {
	g := graph.NewBuilder("triangle").Vertices(label, 0, 1, 2).Cycle(0, 1, 2).MustBuild()
	return pattern.MustNew(g)
}

func TestEnumerateFigure2(t *testing.T) {
	fig := dataset.Figure2()
	occs := isomorph.EnumerateSnapshot(fig.Graph.Freeze(), fig.Pattern, isomorph.Options{})
	if len(occs) != 6 {
		t.Fatalf("got %d occurrences, want 6", len(occs))
	}
	// Every occurrence must map onto the triangle {1,2,3}.
	for _, o := range occs {
		vs := o.VertexSet()
		if len(vs) != 3 || vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
			t.Errorf("occurrence %v has vertex set %v, want [1 2 3]", o, vs)
		}
	}
	insts := isomorph.Instances(fig.Pattern, occs)
	if len(insts) != 1 {
		t.Fatalf("got %d instances, want 1", len(insts))
	}
}

func TestEnumerateRespectsLabels(t *testing.T) {
	fig := dataset.Figure4()
	occs := isomorph.EnumerateSnapshot(fig.Graph.Freeze(), fig.Pattern, isomorph.Options{})
	if len(occs) != 2 {
		t.Fatalf("got %d occurrences, want 2", len(occs))
	}
	for _, o := range occs {
		for _, n := range o.Nodes() {
			img := o.MustImage(n)
			if fig.Graph.MustLabelOf(img) != fig.Pattern.LabelOf(n) {
				t.Errorf("occurrence %v maps node %d (label %d) to vertex %d (label %d)",
					o, n, fig.Pattern.LabelOf(n), img, fig.Graph.MustLabelOf(img))
			}
		}
	}
}

func TestEnumerateMaxOccurrences(t *testing.T) {
	fig := dataset.Figure2()
	occs := isomorph.EnumerateSnapshot(fig.Graph.Freeze(), fig.Pattern, isomorph.Options{MaxOccurrences: 2})
	if len(occs) != 2 {
		t.Fatalf("got %d occurrences, want capped 2", len(occs))
	}
}

func TestEnumerateEdgePreservation(t *testing.T) {
	// Every occurrence must map pattern edges to data edges.
	g := gen.ErdosRenyi(30, 0.15, gen.UniformLabels{K: 2}, 3)
	p := pattern.MustNew(graph.NewBuilder("path").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 1).Path(0, 1, 2).MustBuild())
	occs := isomorph.EnumerateSnapshot(g.Freeze(), p, isomorph.Options{})
	for _, o := range occs {
		for _, e := range p.Edges() {
			if !g.HasEdge(o.MustImage(e.U), o.MustImage(e.V)) {
				t.Fatalf("occurrence %v does not preserve edge %v", o, e)
			}
		}
		// Injectivity.
		seen := make(map[graph.VertexID]bool)
		for _, img := range o.Images() {
			if seen[img] {
				t.Fatalf("occurrence %v is not injective", o)
			}
			seen[img] = true
		}
	}
}

func TestNewOccurrenceValidation(t *testing.T) {
	p := trianglePattern(1)
	if _, err := isomorph.NewOccurrence(p, map[pattern.NodeID]graph.VertexID{0: 1, 1: 2}); err == nil {
		t.Error("expected error for incomplete mapping")
	}
	if _, err := isomorph.NewOccurrence(p, map[pattern.NodeID]graph.VertexID{0: 1, 1: 1, 2: 2}); err == nil {
		t.Error("expected error for non-injective mapping")
	}
	o, err := isomorph.NewOccurrence(p, map[pattern.NodeID]graph.VertexID{0: 5, 1: 6, 2: 7})
	if err != nil {
		t.Fatalf("NewOccurrence: %v", err)
	}
	if o.MustImage(1) != 6 {
		t.Errorf("MustImage(1) = %d", o.MustImage(1))
	}
	if img := o.SubsetImage([]pattern.NodeID{0, 2}); len(img) != 2 || img[0] != 5 || img[1] != 7 {
		t.Errorf("SubsetImage = %v", img)
	}
	if _, ok := o.Image(9); ok {
		t.Error("Image of unknown node should report false")
	}
}

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"uniform triangle", graph.NewBuilder("t").Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild(), 6},
		{"labeled path ABB", graph.NewBuilder("p").Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Path(0, 1, 2).MustBuild(), 1},
		{"uniform path", graph.NewBuilder("p2").Vertices(1, 0, 1, 2).Path(0, 1, 2).MustBuild(), 2},
		{"uniform 4-cycle", graph.NewBuilder("c4").Vertices(1, 0, 1, 2, 3).Cycle(0, 1, 2, 3).MustBuild(), 8},
		{"single edge AB", graph.NewBuilder("e").Vertex(0, 1).Vertex(1, 2).Edge(0, 1).MustBuild(), 1},
		{"single edge AA", graph.NewBuilder("e2").Vertices(1, 0, 1).Edge(0, 1).MustBuild(), 2},
		{"star A-BBB", graph.NewBuilder("s").Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Vertex(3, 2).Star(0, 1, 2, 3).MustBuild(), 6},
	}
	for _, c := range cases {
		autos := isomorph.Automorphisms(c.g)
		if len(autos) != c.want {
			t.Errorf("%s: %d automorphisms, want %d", c.name, len(autos), c.want)
		}
		// The identity must always be present.
		foundIdentity := false
		for _, a := range autos {
			id := true
			for u, v := range a {
				if u != v {
					id = false
					break
				}
			}
			if id {
				foundIdentity = true
			}
		}
		if !foundIdentity {
			t.Errorf("%s: identity automorphism missing", c.name)
		}
	}
}

func TestOrbits(t *testing.T) {
	// Path A-B-B: orbits are {0} and... node 1 is the middle (degree 2),
	// node 2 the end, so all three orbits are singletons.
	p := graph.NewBuilder("p").Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Path(0, 1, 2).MustBuild()
	if got := len(isomorph.Orbits(p)); got != 3 {
		t.Errorf("path ABB orbits = %d, want 3", got)
	}
	// Uniform triangle: a single orbit with all three vertices.
	tri := graph.NewBuilder("t").Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild()
	orbits := isomorph.Orbits(tri)
	if len(orbits) != 1 || len(orbits[0]) != 3 {
		t.Errorf("triangle orbits = %v", orbits)
	}
	// Star with uniform leaves: hub alone, leaves together.
	star := graph.NewBuilder("s").Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Vertex(3, 2).Star(0, 1, 2, 3).MustBuild()
	orbits = isomorph.Orbits(star)
	if len(orbits) != 2 {
		t.Fatalf("star orbits = %v", orbits)
	}
	if !isomorph.AreTransitive(star, 1, 2) {
		t.Error("star leaves should be transitive")
	}
	if isomorph.AreTransitive(star, 0, 1) {
		t.Error("hub and leaf should not be transitive")
	}
	if !isomorph.AreTransitive(star, 0, 0) {
		t.Error("a vertex is transitive with itself")
	}
	if isomorph.AreTransitive(star, 0, 99) {
		t.Error("unknown vertex cannot be transitive")
	}
}

func TestTransitiveNodeSubsetsPolicies(t *testing.T) {
	// Figure 4 pattern: path A-B-B. The pair {1,2} is transitive only in the
	// subpattern consisting of the B-B edge.
	p := pattern.MustNew(graph.NewBuilder("p").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Path(0, 1, 2).MustBuild())

	patternOnly := isomorph.TransitiveNodeSubsets(p, isomorph.PatternOnly)
	if len(patternOnly) != 3 { // singletons only
		t.Errorf("PatternOnly subsets = %v, want 3 singletons", patternOnly)
	}
	induced := isomorph.TransitiveNodeSubsets(p, isomorph.InducedSubpatterns)
	if !containsSubset(induced, []pattern.NodeID{1, 2}) {
		t.Errorf("InducedSubpatterns should contain {1,2}, got %v", induced)
	}
	all := isomorph.TransitiveNodeSubsets(p, isomorph.AllSubgraphs)
	if !containsSubset(all, []pattern.NodeID{1, 2}) {
		t.Errorf("AllSubgraphs should contain {1,2}, got %v", all)
	}
	// Policies are nested: PatternOnly ⊆ InducedSubpatterns ⊆ AllSubgraphs.
	if len(patternOnly) > len(induced) || len(induced) > len(all) {
		t.Errorf("policy nesting violated: %d > %d > %d", len(patternOnly), len(induced), len(all))
	}
	// Singletons must always be present under every policy.
	for _, subsets := range [][][]pattern.NodeID{patternOnly, induced, all} {
		for _, n := range p.Nodes() {
			if !containsSubset(subsets, []pattern.NodeID{n}) {
				t.Errorf("singleton {%d} missing", n)
			}
		}
	}
	// Same-labeled but never-symmetric nodes must not appear together: in the
	// A-B-C-A path, the two A nodes are not transitive in any connected
	// subgraph.
	q := pattern.MustNew(graph.NewBuilder("q").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 3).Vertex(3, 1).Path(0, 1, 2, 3).MustBuild())
	for _, subset := range isomorph.TransitiveNodeSubsets(q, isomorph.AllSubgraphs) {
		if containsNode(subset, 0) && containsNode(subset, 3) {
			t.Errorf("nodes 0 and 3 of the A-B-C-A path must not share a transitive subset: %v", subset)
		}
	}
}

func containsSubset(subsets [][]pattern.NodeID, want []pattern.NodeID) bool {
	for _, s := range subsets {
		if len(s) != len(want) {
			continue
		}
		match := true
		for i := range s {
			if s[i] != want[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func containsNode(subset []pattern.NodeID, n pattern.NodeID) bool {
	for _, v := range subset {
		if v == n {
			return true
		}
	}
	return false
}

// TestOccurrenceInstanceAutomorphismProperty checks the counting identity
// #occurrences = #instances x |Aut(P)| on random workloads: every instance is
// hit by exactly one occurrence per automorphism of the pattern.
func TestOccurrenceInstanceAutomorphismProperty(t *testing.T) {
	patterns := []*pattern.Pattern{
		trianglePattern(1),
		pattern.SingleEdge(1, 1),
		pattern.SingleEdge(1, 2),
		pattern.MustNew(graph.NewBuilder("p").Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Path(0, 1, 2).MustBuild()),
	}
	property := func(seed uint64) bool {
		g := gen.ErdosRenyi(25, 0.12, gen.UniformLabels{K: 2}, seed)
		for _, p := range patterns {
			occs := isomorph.EnumerateSnapshot(g.Freeze(), p, isomorph.Options{})
			insts := isomorph.Instances(p, occs)
			aut := len(isomorph.Automorphisms(p.Graph()))
			if len(occs) != len(insts)*aut {
				t.Logf("seed %d: pattern %s: %d occurrences, %d instances, %d automorphisms",
					seed, p, len(occs), len(insts), aut)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
