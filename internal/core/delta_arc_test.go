package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// A delta pass runs one search per edge orbit of Aut(P), pinned at the side's
// mutated edges: one orientation of a data edge when an automorphism reverses
// the orbit's arc, both otherwise, and an instance is counted at the smallest
// mutated edge it uses. The tests below hold that to from-scratch contexts on
// patterns whose orbits are reversed and not, on a batch where one instance
// uses two mutated edges, on a removal's cascade, and on one-node patterns,
// which have no edge to pin.

// arcPatterns are the patterns every arc-rooted batch is checked for: a
// one-label edge and a one-label triangle (their edge orbits are reversed by
// an automorphism), a one-label path of three and a one-label 3-star (theirs
// are not), and a 1-2-1 path (an end of its arc has another label).
func arcPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.MustNew(graph.NewBuilder("edge11").Vertices(1, 0, 1).Edge(0, 1).MustBuild()),
		pattern.MustNew(graph.NewBuilder("path111").Vertices(1, 0, 1, 2).Edge(0, 1).Edge(1, 2).MustBuild()),
		pattern.MustNew(graph.NewBuilder("path121").Vertex(0, 1).Vertex(1, 2).Vertex(2, 1).Edge(0, 1).Edge(1, 2).MustBuild()),
		trianglePattern(),
		pattern.MustNew(graph.NewBuilder("star3").Vertices(1, 0, 1, 2, 3).Star(0, 1, 2, 3).MustBuild()),
	}
}

// requireArcBatchExact opens a delta context of every given pattern on a
// fresh two-label random geometric graph — local enough that a batch's balls
// stay under half of it — at shards {1, 2, 7} × parallelism {1, 4}, applies
// the one batch mutate makes to the graph, and holds the refreshed aggregates
// to a from-scratch context. The batch must take the delta path, and a pass
// must apply what it counts. check is handed each refresh's stats, to tell a
// batch that reads the rooting from one no instance uses.
func requireArcBatchExact(t *testing.T, patterns []*pattern.Pattern, mutate func(g *graph.Graph), check func(p *pattern.Pattern, st core.DeltaStats)) {
	t.Helper()
	for _, p := range patterns {
		for _, shards := range []int{1, 2, 7} {
			for _, par := range []int{1, 4} {
				tag := fmt.Sprintf("%s shards=%d par=%d", p, shards, par)
				g := gen.RandomGeometric(300, 0.05, gen.UniformLabels{K: 2}, 11)
				d, err := core.NewDeltaContext(g, p, core.Options{Shards: shards, Parallelism: par})
				if err != nil {
					t.Fatalf("%s: NewDeltaContext: %v", tag, err)
				}
				mutate(g)
				err = d.Refresh()
				d.Close()
				if err != nil {
					t.Fatalf("%s: Refresh: %v", tag, err)
				}
				st := d.Stats()
				if st.DeltaRefreshes != 1 {
					t.Fatalf("%s: the batch should take the delta path, stats %+v", tag, st)
				}
				if st.PassCounted != st.PassApplied || st.PassRepresentatives < st.PassCounted {
					t.Fatalf("%s: the passes emitted %d, counted %d and applied %d; a pass applies what it counts", tag, st.PassRepresentatives, st.PassCounted, st.PassApplied)
				}
				requireDeltaMatchesScratch(t, d, g, p, tag)
				check(p, st)
			}
		}
	}
}

// farFrom returns the first vertex of label 1 that is none of the given
// vertices and shares no neighbour with, and is adjacent to none of, them.
func farFrom(t *testing.T, g *graph.Graph, near ...graph.VertexID) graph.VertexID {
	t.Helper()
	reach := slices.Clone(near)
	for _, v := range near {
		reach = append(reach, g.Neighbors(v)...)
	}
	for _, w := range g.SortedVertices() {
		if g.MustLabelOf(w) != 1 || slices.Contains(reach, w) {
			continue
		}
		if !slices.ContainsFunc(g.Neighbors(w), func(x graph.VertexID) bool { return slices.Contains(reach, x) }) {
			return w
		}
	}
	t.Fatalf("no vertex far from %v", near)
	return 0
}

// labelOneEdge returns the first edge of g between two vertices of label 1.
func labelOneEdge(t *testing.T, g *graph.Graph) (graph.VertexID, graph.VertexID) {
	t.Helper()
	for _, e := range g.Edges() {
		if g.MustLabelOf(e.U) == 1 && g.MustLabelOf(e.V) == 1 {
			return e.U, e.V
		}
	}
	t.Fatal("the graph has no edge between two vertices of label 1")
	return 0, 0
}

// TestArcRootedEdgesAddedAndRemoved adds edges that close paths of two hops
// and removes edges, spread over the graph between vertices of either label,
// so every pattern gains and loses instances through both orientations of a
// mutated edge.
func TestArcRootedEdgesAddedAndRemoved(t *testing.T) {
	requireArcBatchExact(t, arcPatterns(), func(g *graph.Graph) {
		ids := g.SortedVertices()
		for _, u := range []graph.VertexID{ids[40], ids[140], ids[240]} {
		closing:
			for _, x := range g.Neighbors(u) {
				for _, w := range g.Neighbors(x) {
					if w != u && !g.HasEdge(u, w) {
						g.MustAddEdge(u, w)
						break closing
					}
				}
			}
		}
		for _, u := range []graph.VertexID{ids[90], ids[190], ids[290]} {
			if nbs := g.Neighbors(u); len(nbs) > 0 {
				g.MustRemoveEdge(u, nbs[0])
			}
		}
	}, requireApplied(t))
}

// requireApplied returns a check that fails a refresh whose passes applied
// nothing.
func requireApplied(t *testing.T) func(p *pattern.Pattern, st core.DeltaStats) {
	return func(p *pattern.Pattern, st core.DeltaStats) {
		if st.PassApplied == 0 {
			t.Fatalf("%s: the passes applied nothing, stats %+v; the batch does not exercise the pattern", p, st)
		}
	}
}

// requireMetTwice returns a check that fails a refresh of one of the named
// patterns unless some instance was met at two mutated edges: emitted more
// than counted.
func requireMetTwice(t *testing.T, names ...string) func(p *pattern.Pattern, st core.DeltaStats) {
	return func(p *pattern.Pattern, st core.DeltaStats) {
		if slices.Contains(names, p.Graph().Name()) && st.PassRepresentatives <= st.PassCounted {
			t.Fatalf("%s: the passes emitted %d and counted %d; no instance used two mutated edges", p, st.PassRepresentatives, st.PassCounted)
		}
	}
}

// TestArcRootedTwoEdgesOfOneTriangle adds two edges that close one triangle
// over an existing edge (u, v), from a vertex w of label 1 far from both: the
// triangle is the one instance the batch adds, and it uses both mutated
// edges, so the triangle's plus pass meets it twice, once at each, and counts
// it once. The path u–w–v uses both as well. No 1-2-1 path uses an edge
// between two vertices of label 1.
func TestArcRootedTwoEdgesOfOneTriangle(t *testing.T) {
	requireArcBatchExact(t, arcPatterns(), func(g *graph.Graph) {
		u, v := labelOneEdge(t, g)
		w := farFrom(t, g, u, v)
		g.MustAddEdge(u, w)
		g.MustAddEdge(v, w)
	}, func(p *pattern.Pattern, st core.DeltaStats) {
		switch name := p.Graph().Name(); {
		case name == trianglePattern().Graph().Name():
			if st.PassRepresentatives != 2 || st.PassCounted != 1 {
				t.Fatalf("the triangle's passes emitted %d and counted %d; want its one new triangle met at both new edges and counted once", st.PassRepresentatives, st.PassCounted)
			}
		case name == "path121":
			if st.PassRepresentatives != 0 {
				t.Fatalf("the 1-2-1 path's passes emitted %d; no instance uses a mutated edge", st.PassRepresentatives)
			}
		default:
			requireApplied(t)(p, st)
			requireMetTwice(t, "path111")(p, st)
		}
	})
}

// TestArcRootedRemovalCascade removes the vertex of label 1 on the most
// one-label triangles and the vertex of label 2 with the most neighbours of
// label 1, and with them all their edges: one MutEdgeRemoved per edge, so the
// minus pass meets an instance through such a vertex at every one of its
// edges that the instance uses, and counts it once. A pattern node of degree
// two — a path's centre, a triangle's corner — or three uses two or three.
func TestArcRootedRemovalCascade(t *testing.T) {
	requireArcBatchExact(t, arcPatterns(), func(g *graph.Graph) {
		var hub, centre graph.VertexID
		mostTriangles, mostOnes := -1, -1
		for _, v := range g.SortedVertices() {
			triangles, ones := 0, 0
			nbs := g.Neighbors(v)
			for i, a := range nbs {
				if g.MustLabelOf(a) == 1 {
					ones++
				}
				for _, b := range nbs[i+1:] {
					if g.MustLabelOf(a) == 1 && g.MustLabelOf(b) == 1 && g.HasEdge(a, b) {
						triangles++
					}
				}
			}
			if g.MustLabelOf(v) == 1 && triangles > mostTriangles {
				hub, mostTriangles = v, triangles
			}
			if g.MustLabelOf(v) == 2 && ones > mostOnes {
				centre, mostOnes = v, ones
			}
		}
		g.MustRemoveVertex(hub)
		g.MustRemoveVertex(centre)
	}, func(p *pattern.Pattern, st core.DeltaStats) {
		requireApplied(t)(p, st)
		requireMetTwice(t, "path111", "path121", "tri", "star3")(p, st)
	})
}

// TestArcRootedOneNodePatterns adds vertices of both labels, some with an
// edge, removes vertices of both labels, and removes and adds back one under
// the other label. A one-node pattern has no edge to pin: its passes apply the
// mutated vertices of its label, one instance each — five for label 1 (two
// added, two removed, the relabelled one's new side) and five for label 2.
func TestArcRootedOneNodePatterns(t *testing.T) {
	patterns := []*pattern.Pattern{
		pattern.MustNew(graph.NewBuilder("node1").Vertices(1, 0).MustBuild()),
		pattern.MustNew(graph.NewBuilder("node2").Vertices(2, 0).MustBuild()),
	}
	requireArcBatchExact(t, patterns, func(g *graph.Graph) {
		ids := g.SortedVertices()
		top := ids[len(ids)-1]
		for k := graph.VertexID(1); k <= 4; k++ {
			g.MustAddVertex(top+k, graph.Label(1+k%2))
		}
		g.MustAddEdge(top+1, ids[0])
		g.MustAddEdge(top+2, ids[1])
		removed := 0
		for _, v := range ids[10:] {
			if g.MustLabelOf(v) == graph.Label(1+removed%2) {
				g.MustRemoveVertex(v)
				if removed++; removed == 4 {
					break
				}
			}
		}
		v := ids[len(ids)/2]
		label, nbs := g.MustLabelOf(v), g.Neighbors(v)
		g.MustRemoveVertex(v)
		g.MustAddVertex(v, 3-label)
		for _, w := range nbs {
			g.MustAddEdge(v, w)
		}
	}, func(p *pattern.Pattern, st core.DeltaStats) {
		if st.PassRepresentatives != 5 || st.PassApplied != 5 {
			t.Fatalf("%s: the passes emitted %d and applied %d vertices, want the 5 mutated vertices of its label on either side", p, st.PassRepresentatives, st.PassApplied)
		}
	})
}
