package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// A delta pass applies only the instances that use a vertex or an edge its
// batch added or removed. Its searches are pinned at the mutated edges (a
// one-node pattern's pass reads the mutated vertices), so every other instance
// is never met, by either side's pass. The tests below hold that rule to
// from-scratch contexts on the batches where "mutated" is easiest to get
// wrong: structure that is mutated and restored within one batch, a vertex
// whose label changes under one ID, a removal's cascade, and vertices with no
// edges at all.

// skipPatterns are the patterns every skip-rule batch is checked for: a single
// node of each label, which no edge can hold and only the mutated vertices
// decide for, an edge, a path of three and a triangle.
func skipPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.MustNew(graph.NewBuilder("node1").Vertices(1, 0).MustBuild()),
		pattern.MustNew(graph.NewBuilder("node2").Vertices(2, 0).MustBuild()),
		pattern.MustNew(graph.NewBuilder("edge").Vertex(0, 1).Vertex(1, 2).Edge(0, 1).MustBuild()),
		pattern.MustNew(graph.NewBuilder("path3").Vertices(1, 0, 1, 2).Edge(0, 1).Edge(1, 2).MustBuild()),
		trianglePattern(),
	}
}

// requireBatchExact opens a delta context of every skip pattern on a fresh
// two-label random geometric graph — local enough that a batch's balls stay
// under half of it — at shards {1, 2, 7} × parallelism {1, 4}, applies the
// one batch mutate makes to the graph, and holds the refreshed aggregates to
// a from-scratch context. The batch must take the delta path: a rebuild would
// not read the rule at all.
func requireBatchExact(t *testing.T, mutate func(g *graph.Graph, ids []graph.VertexID)) {
	t.Helper()
	for _, p := range skipPatterns() {
		for _, shards := range []int{1, 2, 7} {
			for _, par := range []int{1, 4} {
				g := gen.RandomGeometric(300, 0.05, gen.UniformLabels{K: 2}, 11)
				d, err := core.NewDeltaContext(g, p, core.Options{Shards: shards, Parallelism: par})
				if err != nil {
					t.Fatalf("%s shards=%d par=%d: NewDeltaContext: %v", p, shards, par, err)
				}
				mutate(g, g.SortedVertices())
				err = d.Refresh()
				d.Close()
				if err != nil {
					t.Fatalf("%s shards=%d par=%d: Refresh: %v", p, shards, par, err)
				}
				if st := d.Stats(); st.DeltaRefreshes != 1 {
					t.Fatalf("%s shards=%d par=%d: the batch should take the delta path, stats %+v", p, shards, par, st)
				}
				requireDeltaMatchesScratch(t, d, g, p, p.String())
			}
		}
	}
}

// lastOnTriangle returns the last vertex of g on a triangle, and two of its
// neighbours that close it.
func lastOnTriangle(t *testing.T, g *graph.Graph, ids []graph.VertexID) (v, a, b graph.VertexID) {
	t.Helper()
	for i := len(ids) - 1; i >= 0; i-- {
		nbs := g.Neighbors(ids[i])
		for j, x := range nbs {
			for _, y := range nbs[j+1:] {
				if g.HasEdge(x, y) {
					return ids[i], x, y
				}
			}
		}
	}
	t.Fatal("the graph has no triangle")
	return 0, 0, 0
}

// TestSkipRuleEdgeAddedAndRemoved mutates edges and restores them within one
// batch: an edge added and removed again, and an edge of a triangle removed
// and added back. Both sides have the same graph, every instance through
// those edges is applied on both and cancels, and the aggregates must not move.
func TestSkipRuleEdgeAddedAndRemoved(t *testing.T) {
	requireBatchExact(t, func(g *graph.Graph, ids []graph.VertexID) {
		v, a, _ := lastOnTriangle(t, g, ids)
		u := ids[len(ids)/2]
		if u == v || g.HasEdge(u, v) {
			t.Fatalf("vertices %d and %d do not fit the batch", u, v)
		}
		g.MustAddEdge(u, v)
		g.MustRemoveEdge(u, v)
		g.MustRemoveEdge(v, a)
		g.MustAddEdge(v, a)
	})
}

// TestSkipRuleVertexRelabelled removes a vertex on a triangle and adds it back
// under the other label with the same edges, in one batch: the vertex's ID is
// in both snapshots, its instances are not, and only the mutated-vertex rule
// says so for the single-node patterns.
func TestSkipRuleVertexRelabelled(t *testing.T) {
	requireBatchExact(t, func(g *graph.Graph, ids []graph.VertexID) {
		v, _, _ := lastOnTriangle(t, g, ids)
		label := g.MustLabelOf(v)
		nbs := g.Neighbors(v)
		g.MustRemoveVertex(v)
		g.MustAddVertex(v, 3-label)
		for _, w := range nbs {
			g.MustAddEdge(v, w)
		}
	})
}

// TestSkipRuleRemovalCascade removes a vertex on a triangle, and with it its
// edges: one MutEdgeRemoved per edge, then the vertex's own mutation. The
// removed instances exist on the old side only.
func TestSkipRuleRemovalCascade(t *testing.T) {
	requireBatchExact(t, func(g *graph.Graph, ids []graph.VertexID) {
		v, _, _ := lastOnTriangle(t, g, ids)
		if len(g.Neighbors(v)) < 2 {
			t.Fatalf("vertex %d has no cascade to remove", v)
		}
		g.MustRemoveVertex(v)
	})
}

// TestSkipRuleIsolatedVertexAdditions adds vertices of both labels with no
// edges. They touch no edge, so only the mutated-vertex rule applies the
// single-node instances they form; no other pattern changes.
func TestSkipRuleIsolatedVertexAdditions(t *testing.T) {
	requireBatchExact(t, func(g *graph.Graph, ids []graph.VertexID) {
		for k := 1; k <= 4; k++ {
			g.MustAddVertex(ids[len(ids)-1]+graph.VertexID(k), graph.Label(1+k%2))
		}
	})
}
