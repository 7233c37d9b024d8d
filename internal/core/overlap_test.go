package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// referenceClassifyOverlap is ClassifyOverlap as it was built on maps: the
// image intersection as a vertex set, images looked up by node ID, and both
// orders of every pair of distinct nodes of every transitive node subset
// tried against the intersection.
func referenceClassifyOverlap(p *pattern.Pattern, subsets [][]pattern.NodeID, f1, f2 *isomorph.Occurrence) core.OverlapKind {
	var kind core.OverlapKind
	set1 := make(map[graph.VertexID]bool)
	for _, v := range f1.VertexSet() {
		set1[v] = true
	}
	intersection := make(map[graph.VertexID]bool)
	for _, v := range f2.VertexSet() {
		if set1[v] {
			intersection[v] = true
		}
	}
	if len(intersection) == 0 {
		return kind
	}
	kind.Simple = true
	for _, v := range p.Nodes() {
		if intersection[f1.MustImage(v)] && intersection[f2.MustImage(v)] {
			kind.Harmful = true
			break
		}
	}
	for _, subset := range subsets {
		for _, v := range subset {
			for _, w := range subset {
				if v == w {
					continue
				}
				if iv := f1.MustImage(v); iv == f2.MustImage(w) && intersection[iv] {
					kind.Structural = true
					return kind
				}
				if iw := f1.MustImage(w); iw == f2.MustImage(v) && intersection[iw] {
					kind.Structural = true
					return kind
				}
			}
		}
	}
	return kind
}

// overlapContexts returns a materialized context of every paper figure and of
// the path, triangle and 3-leaf star (one label) on a seeded random geometric
// graph.
func overlapContexts(t *testing.T) map[string]*core.Context {
	t.Helper()
	out := make(map[string]*core.Context)
	for _, fig := range dataset.AllFigures() {
		out[fig.Name] = core.MustNewContext(fig.Graph, fig.Pattern, core.Options{})
	}
	g := gen.RandomGeometric(60, 0.16, gen.UniformLabels{K: 2}, 11)
	for name, p := range map[string]*pattern.Pattern{
		"path":     pattern.MustNew(graph.NewBuilder("path").Vertices(1, 0, 1, 2).Path(0, 1, 2).MustBuild()),
		"triangle": pattern.MustNew(graph.NewBuilder("triangle").Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild()),
		"star":     pattern.MustNew(graph.NewBuilder("star").Vertices(1, 0, 1, 2, 3).Star(0, 1, 2, 3).MustBuild()),
	} {
		ctx := core.MustNewContext(g, p, core.Options{})
		if ctx.NumOccurrences() < 20 {
			t.Fatalf("geometric %s: only %d occurrences", name, ctx.NumOccurrences())
		}
		out["geometric "+name] = ctx
	}
	return out
}

// TestClassifyOverlapMatchesReference: on every occurrence pair, either
// order, of every context the position-based classification is the map-based
// one.
func TestClassifyOverlapMatchesReference(t *testing.T) {
	for name, ctx := range overlapContexts(t) {
		subsets, err := ctx.TransitiveNodeSubsets()
		if err != nil {
			t.Fatal(err)
		}
		occs := ctx.Occurrences()
		var structural int
		for i, f1 := range occs {
			for j, f2 := range occs {
				got, want := ctx.ClassifyOverlap(f1, f2), referenceClassifyOverlap(ctx.Pattern(), subsets, f1, f2)
				if got != want {
					t.Fatalf("%s: pair (%d, %d): %+v, reference %+v", name, i, j, got, want)
				}
				if got.Structural {
					structural++
				}
			}
		}
		t.Logf("%s: %d occurrences, %d structurally overlapping ordered pairs", name, len(occs), structural)
	}
}

// TestPredicateOverlapGraphMatchesAllPairs holds the harmful- and
// structural-overlap graphs, whose predicate NewOverlapGraph asks only about
// pairs that share a vertex, to the all-pairs construction: the predicate
// asked about every pair. It must never be asked about a disjoint pair, nor
// twice about one pair.
func TestPredicateOverlapGraphMatchesAllPairs(t *testing.T) {
	for name, ctx := range overlapContexts(t) {
		// The overlap graph's vertices are the occurrences, as MIS-HO and
		// MIS-SO build it: one hyperedge per occurrence.
		occs := ctx.Occurrences()
		ho := hypergraph.New()
		for _, o := range occs {
			ho.MustAddEdge(o.VertexSet())
		}
		for _, mode := range []string{"harmful", "structural"} {
			overlaps := func(a, b hypergraph.EdgeID) bool {
				kind := ctx.ClassifyOverlap(occs[a], occs[b])
				return kind.Harmful && mode == "harmful" || kind.Structural && mode == "structural"
			}
			asked := make(map[[2]hypergraph.EdgeID]bool)
			og := hypergraph.NewOverlapGraph(ho, func(a, b hypergraph.EdgeID) bool {
				if !ctx.ClassifyOverlap(occs[a], occs[b]).Simple {
					t.Errorf("%s %s: predicate asked about disjoint pair (%d, %d)", name, mode, a, b)
				}
				if asked[[2]hypergraph.EdgeID{a, b}] || a >= b {
					t.Errorf("%s %s: predicate asked about (%d, %d) twice or out of order", name, mode, a, b)
				}
				asked[[2]hypergraph.EdgeID{a, b}] = true
				return overlaps(a, b)
			})
			edges := 0
			for i := range occs {
				for j := range occs {
					want := i != j && overlaps(hypergraph.EdgeID(min(i, j)), hypergraph.EdgeID(max(i, j)))
					if og.HasEdge(i, j) != want {
						t.Fatalf("%s %s: edge (%d, %d) = %v, all pairs say %v", name, mode, i, j, og.HasEdge(i, j), want)
					}
					if want && i < j {
						edges++
					}
				}
			}
			if og.NumEdges() != edges {
				t.Errorf("%s %s: %d edges, all pairs give %d", name, mode, og.NumEdges(), edges)
			}
		}
	}
}
