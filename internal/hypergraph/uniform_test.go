package hypergraph

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestUniformMatchesAddEdge builds random k-uniform hypergraphs (k = 1 to 5,
// vertex sets repeated, VertexIDs sparse) twice — through NewUniform from
// rank lists in no order, and through New and AddEdge from the same vertex
// sets — and requires one hypergraph: every accessor, the kernel and what the
// solvers find, search-node counts included. Each kernel must also be the one
// the reference builds through New and AddEdge, branch orders included.
func TestUniformMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 600; trial++ {
		k := 1 + trial%5
		pool := k + rng.Intn(12)
		ids := make([]graph.VertexID, pool)
		next := graph.VertexID(rng.Intn(5))
		for i := range ids {
			ids[i] = next
			next += 1 + graph.VertexID(rng.Intn(1000))
		}
		var sets [][]int // edges as indexes into ids, in no order
		for e := 1 + rng.Intn(30); e > 0; e-- {
			if len(sets) > 0 && rng.Intn(3) == 0 {
				s := slices.Clone(sets[rng.Intn(len(sets))])
				rng.Shuffle(k, func(i, j int) { s[i], s[j] = s[j], s[i] })
				sets = append(sets, s)
				continue
			}
			sets = append(sets, rng.Perm(pool)[:k])
		}

		// NewUniform's vertices are the ones in some edge, ranked in order.
		used := make([]bool, pool)
		for _, s := range sets {
			for _, i := range s {
				used[i] = true
			}
		}
		rankOf := make([]int32, pool)
		var vertices []graph.VertexID
		for i, in := range used {
			if in {
				rankOf[i] = int32(len(vertices))
				vertices = append(vertices, ids[i])
			}
		}
		ranks := make([]int32, 0, k*len(sets))
		want := New()
		for _, s := range sets {
			vs := make([]graph.VertexID, k)
			for j, i := range s {
				ranks = append(ranks, rankOf[i])
				vs[j] = ids[i]
			}
			want.MustAddEdge(vs)
		}
		got := NewUniform(vertices, k, ranks)
		requireSameHypergraph(t, got, want, ids)

		// An edge added to a NewUniform hypergraph joins the edges it had.
		extra := []graph.VertexID{ids[0], next}
		got.MustAddEdge(extra)
		want.MustAddEdge(extra)
		if !sameEdges(got.Edges(), want.Edges()) {
			t.Fatalf("after AddEdge(%v): %v, want %v", extra, got.Edges(), want.Edges())
		}
	}
}

// requireSameHypergraph fails unless got and want answer every accessor and
// solver alike; probe lists VertexIDs to ask about, some in no edge (and
// one past the last is asked about too).
func requireSameHypergraph(t *testing.T, got, want *Hypergraph, probe []graph.VertexID) {
	t.Helper()
	edges := want.Edges()
	if got.NumEdges() != want.NumEdges() || got.NumVertices() != want.NumVertices() ||
		!slices.Equal(got.Vertices(), want.Vertices()) || !sameEdges(got.Edges(), edges) {
		t.Fatalf("NewUniform built %v over %v, AddEdge %v over %v", got.Edges(), got.Vertices(), edges, want.Vertices())
	}
	for id := EdgeID(-1); id <= EdgeID(len(edges)); id++ {
		g, gok := got.Edge(id)
		w, wok := want.Edge(id)
		if gok != wok || !slices.Equal(g.Vertices, w.Vertices) {
			t.Fatalf("%v: Edge(%d) = %v, %v; want %v, %v", edges, id, g, gok, w, wok)
		}
	}
	for _, v := range append(slices.Clone(probe), probe[len(probe)-1]+1) {
		if !slices.Equal(got.IncidentEdges(v), want.IncidentEdges(v)) || got.VertexDegree(v) != want.VertexDegree(v) {
			t.Fatalf("%v: vertex %d is in %v, want %v", edges, v, got.IncidentEdges(v), want.IncidentEdges(v))
		}
	}
	gk, gu := got.IsUniform()
	wk, wu := want.IsUniform()
	if gk != wk || gu != wu || got.IsSimple() != want.IsSimple() || !slices.Equal(got.EdgeClasses(), want.EdgeClasses()) {
		t.Fatalf("%v: uniform %d %v simple %v classes %v; want %d %v %v %v", edges,
			gk, gu, got.IsSimple(), got.EdgeClasses(), wk, wu, want.IsSimple(), want.EdgeClasses())
	}
	requireSameView(t, got, want)

	gotK, gotOrigin := got.Kernel()
	wantK, wantOrigin := want.Kernel()
	refK, refOrigin := want.reduce().referenceKernel()
	if !sameEdges(gotK.Edges(), wantK.Edges()) || !slices.Equal(gotOrigin, wantOrigin) || !slices.Equal(gotK.Vertices(), wantK.Vertices()) {
		t.Fatalf("%v: kernel %v from %v, want %v from %v", edges, gotK.Edges(), gotOrigin, wantK.Edges(), wantOrigin)
	}
	requireSameView(t, gotK, wantK)
	requireSameView(t, wantK, refK)
	if !slices.Equal(wantOrigin, refOrigin) {
		t.Fatalf("%v: kernel origin %v, reference %v", edges, wantOrigin, refOrigin)
	}

	for _, budget := range []int{0, 7} {
		gc, gn := got.minimumVertexCover(budget, 0)
		wc, wn := want.minimumVertexCover(budget, 0)
		if !sameCover(gc, wc) || gn != wn {
			t.Fatalf("%v budget %d: cover %+v in %d nodes, want %+v in %d", edges, budget, gc, gn, wc, wn)
		}
		gs, gsn := NewOverlapGraph(got, nil).maximumIndependentSet(budget, 0)
		ws, wsn := NewOverlapGraph(want, nil).maximumIndependentSet(budget, 0)
		if !sameIndependentSet(gs, ws) || gsn != wsn {
			t.Fatalf("%v budget %d: packing %+v in %d nodes, want %+v in %d", edges, budget, gs, gsn, ws, wsn)
		}
	}
	if g, w := got.GreedyVertexCover(), want.GreedyVertexCover(); !sameCover(g, w) {
		t.Fatalf("%v: greedy cover %+v, want %+v", edges, g, w)
	}
	if g, w := got.GreedyIndependentEdgeSet(), want.GreedyIndependentEdgeSet(); !sameMatching(g, w) {
		t.Fatalf("%v: greedy packing %+v, want %+v", edges, g, w)
	}
}

func sameEdges(a, b []HyperEdge) bool {
	return slices.EqualFunc(a, b, func(x, y HyperEdge) bool { return slices.Equal(x.Vertices, y.Vertices) })
}
