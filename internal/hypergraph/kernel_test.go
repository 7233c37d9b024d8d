package hypergraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// checkKernel fails unless k, origin is a kernel of h: each kernel edge is
// what is left of its origin edge, origins ascend, neither rule applies
// anywhere in k, and the unbudgeted minimum cover and
// maximum packing of k are those of h, its cover covering h and its packing,
// through origin, disjoint in h.
func checkKernel(t *testing.T, h, k *Hypergraph, origin []EdgeID) {
	t.Helper()
	edges := k.Edges()
	if len(origin) != len(edges) || !slices.IsSorted(origin) || len(slices.Compact(slices.Clone(origin))) != len(origin) {
		t.Fatalf("%v: kernel %v with origins %v", h.Edges(), edges, origin)
	}
	for i, e := range edges {
		if o, _ := h.Edge(origin[i]); !isSubset(e.Vertices, o.Vertices) {
			t.Fatalf("%v: kernel edge %d %v is not part of edge %d %v", h.Edges(), i, e.Vertices, origin[i], o.Vertices)
		}
	}
	if !k.IsSimple() {
		t.Fatalf("%v: in kernel %v an edge contains another", h.Edges(), edges)
	}
	for _, u := range k.Vertices() {
		at := k.IncidentEdges(u)
	next:
		for _, w := range k.Vertices() {
			if w == u {
				continue
			}
			for _, e := range at {
				if _, ok := slices.BinarySearch(edges[e].Vertices, w); !ok {
					continue next
				}
			}
			t.Fatalf("%v: kernel %v keeps vertex %d, though %d lies in every edge at it", h.Edges(), edges, u, w)
		}
	}

	cover, kCover := h.MinimumVertexCover(0), k.MinimumVertexCover(0)
	if kCover.Size != cover.Size || h.ValidateCover(kCover.Cover) != nil {
		t.Fatalf("%v: kernel %v has cover %v, the hypergraph's minimum is %d", h.Edges(), edges, kCover.Cover, cover.Size)
	}
	packing, kPacking := h.MaximumIndependentEdgeSet(0), k.MaximumIndependentEdgeSet(0)
	mapped := make([]EdgeID, len(kPacking.Edges))
	for i, e := range kPacking.Edges {
		mapped[i] = origin[e]
	}
	if kPacking.Size != packing.Size || !h.IsIndependentEdgeSet(mapped) {
		t.Fatalf("%v: kernel %v has packing %v (%v in h), the hypergraph's maximum is %d", h.Edges(), edges, kPacking.Edges, mapped, packing.Size)
	}
}

// isSubset reports whether sorted slice a is a subset of sorted slice b.
func isSubset(a, b []graph.VertexID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}

// TestKernelOnRandomHypergraphs reduces 2 000 random hypergraphs — uniform
// ones with repeated vertex sets, as instance hypergraphs are, and ones of
// mixed edge sizes, where edges nest — and checks each kernel.
func TestKernelOnRandomHypergraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 2000; trial++ {
		n, k := 4+rng.Intn(14), 1+rng.Intn(4)
		uniform := trial%2 == 0
		h := New()
		var sets [][]graph.VertexID
		for e := 1 + rng.Intn(24); e > 0; e-- {
			if len(sets) > 0 && rng.Intn(4) == 0 {
				sets = append(sets, sets[rng.Intn(len(sets))])
				continue
			}
			size := k
			if !uniform {
				size = 1 + rng.Intn(k)
			}
			vs := make([]graph.VertexID, min(size, n))
			for i, v := range rng.Perm(n)[:len(vs)] {
				vs[i] = graph.VertexID(v)
			}
			sets = append(sets, vs)
		}
		for _, vs := range sets {
			h.MustAddEdge(vs)
		}
		kernel, origin := h.Kernel()
		checkKernel(t, h, kernel, origin)
	}
}

// TestKernelCounters checks one kernel and that building it adds its size to
// the two kernel counters. The hypergraph is the occurrence hypergraph of a
// 3-leaf star: the leaf triples {2,3,4}, {2,3,5}, {2,4,5} and {3,4,5} of hub
// 0 and {3,4,5} of hub 1, each six times. Rule E keeps the first of each
// six; rule V drops 2, whose edges all hold 0, and 1, whose one edge holds 3;
// then {0,3,4,5} contains what is left of hub 1's edge and goes too. What
// remains is the four triples of {0, 3, 4, 5}.
func TestKernelCounters(t *testing.T) {
	h := decodeHypergraph(starBytes())
	vertices := obs.Default.Counter("repro_hypergraph_kernel_vertices_total")
	edges := obs.Default.Counter("repro_hypergraph_kernel_edges_total")
	v0, e0 := vertices.Value(), edges.Value()
	k, origin := h.Kernel()
	if dv, de := vertices.Value()-v0, edges.Value()-e0; dv != 4 || de != 4 {
		t.Errorf("a kernel of 4 vertices and 4 edges moved the counters by %d and %d", dv, de)
	}
	checkKernel(t, h, k, origin)
	if got := fmt.Sprint(k.Edges(), origin); got != "[{[0 3 4]} {[0 3 5]} {[0 4 5]} {[3 4 5]}] [0 6 12 24]" {
		t.Errorf("kernel and origins %s", got)
	}
}
