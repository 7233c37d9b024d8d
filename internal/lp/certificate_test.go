package lp_test

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/lp"
	"repro/internal/obs"
)

// feasTol is how far round-off may leave a solution outside a constraint.
const feasTol = 1e-9

// certify fails unless res proves its own optimality on h: Packing is
// non-negative and sums to at most 1 around every vertex (feasible for
// Definition 4.3.2), Cover is non-negative and sums to at least 1 inside
// every edge (feasible for Definition 4.3.1), each within feasTol, and both
// sum to Value. Weak duality puts every feasible packing below every feasible
// cover, so a pair of equal value is optimal on both sides — Theorem 4.6,
// checked from the hypergraph alone with nothing of the solver's.
func certify(t testing.TB, h *hypergraph.Hypergraph, res lp.RelaxationResult) {
	t.Helper()
	vertices := h.Vertices()
	if res.Status != lp.Optimal {
		t.Fatalf("%v: status %v", h, res.Status)
	}
	if len(res.Packing) != h.NumEdges() || len(res.Cover) != len(vertices) {
		t.Fatalf("%v: %d packing and %d cover values", h, len(res.Packing), len(res.Cover))
	}
	x := make(map[graph.VertexID]float64, len(vertices))
	sumX, sumY := 0.0, 0.0
	for i, v := range vertices {
		if res.Cover[i] < -feasTol {
			t.Fatalf("%v: x(%d) = %v is negative", h, v, res.Cover[i])
		}
		x[v] = res.Cover[i]
		sumX += res.Cover[i]
		load := 0.0
		for _, e := range h.IncidentEdges(v) {
			load += res.Packing[e]
		}
		if load > 1+feasTol {
			t.Fatalf("%v: the packing loads vertex %d with %v", h, v, load)
		}
	}
	for id, e := range h.Edges() {
		if res.Packing[id] < -feasTol {
			t.Fatalf("%v: y(%d) = %v is negative", h, id, res.Packing[id])
		}
		sumY += res.Packing[id]
		covered := 0.0
		for _, v := range e.Vertices {
			covered += x[v]
		}
		if covered < 1-feasTol {
			t.Fatalf("%v: the cover gives edge %d %v only %v", h, id, e.Vertices, covered)
		}
	}
	if math.Abs(sumX-res.Value) > 1e-6 || math.Abs(sumY-res.Value) > 1e-6 {
		t.Fatalf("%v: cover sums to %v and packing to %v, Value is %v", h, sumX, sumY, res.Value)
	}
}

// solveBothWays returns the relaxation of h after checking that the two named
// views of it are the same solve.
func solveBothWays(t testing.TB, h *hypergraph.Hypergraph) lp.RelaxationResult {
	t.Helper()
	cover, err := lp.FractionalVertexCover(h)
	if err != nil {
		t.Fatalf("FractionalVertexCover: %v", err)
	}
	packing, err := lp.FractionalIndependentEdgeSet(h)
	if err != nil {
		t.Fatalf("FractionalIndependentEdgeSet: %v", err)
	}
	if math.Float64bits(cover.Value) != math.Float64bits(packing.Value) {
		t.Fatalf("%v: the two views disagree: %v vs %v", h, cover.Value, packing.Value)
	}
	return cover
}

func fromEdges(edges ...[]graph.VertexID) *hypergraph.Hypergraph {
	h := hypergraph.New()
	for _, e := range edges {
		h.MustAddEdge(e)
	}
	return h
}

func TestFractionalVertexCoverTriangle(t *testing.T) {
	// The occurrence-hypergraph shape of Figure 2: six edges over the same
	// three vertices.
	tri := []graph.VertexID{1, 2, 3}
	h := fromEdges(tri, tri, tri, tri, tri, tri)
	res := solveBothWays(t, h)
	certify(t, h, res)
	if math.Abs(res.Value-1) > 1e-6 {
		t.Fatalf("got %+v, want value 1", res)
	}
}

func TestFractionalDualityOnFigure6Shape(t *testing.T) {
	// Star overlap shape from Figure 6: seven 2-uniform edges.
	h := fromEdges([]graph.VertexID{1, 5}, []graph.VertexID{1, 6}, []graph.VertexID{1, 7}, []graph.VertexID{1, 8},
		[]graph.VertexID{2, 8}, []graph.VertexID{3, 8}, []graph.VertexID{4, 8})
	res := solveBothWays(t, h)
	certify(t, h, res)
	if math.Abs(res.Value-2) > 1e-6 {
		t.Fatalf("expected fractional optimum 2 for the Figure 6 shape, got %v", res.Value)
	}
}

func TestFractionalEmptyHypergraph(t *testing.T) {
	h := hypergraph.New()
	res := solveBothWays(t, h)
	certify(t, h, res)
	if res.Value != 0 {
		t.Fatalf("empty hypergraph: %+v", res)
	}
}

func TestSolveSimpleMinimization(t *testing.T) {
	// min x + y  s.t. x + y >= 1, x >= 0, y >= 0  -> optimum 1: the
	// fractional cover of a single two-vertex edge.
	h := fromEdges([]graph.VertexID{1, 2})
	res := solveBothWays(t, h)
	certify(t, h, res)
	if math.Abs(res.Value-1) > 1e-6 {
		t.Fatalf("got %+v, want optimal objective 1", res)
	}
}

func TestSolveSimpleMaximization(t *testing.T) {
	// max y0 + y1 + y2 over the path 1-2-3-4: y0 + y1 <= 1 and y1 + y2 <= 1
	// leave (1, 0, 1) as the only optimum.
	h := fromEdges([]graph.VertexID{1, 2}, []graph.VertexID{2, 3}, []graph.VertexID{3, 4})
	res := solveBothWays(t, h)
	certify(t, h, res)
	want := []float64{1, 0, 1}
	for i, y := range res.Packing {
		if math.Abs(y-want[i]) > 1e-6 {
			t.Fatalf("got packing %v, want %v", res.Packing, want)
		}
	}
}

// randomHypergraph draws edges over a pool of vertices: uniform of size k
// when mixed is false, sizes 1..k otherwise, and every fourth edge repeats an
// earlier vertex set, as the occurrences of a symmetric pattern do.
func randomHypergraph(rng *gen.RNG, vertices, edges, k int, mixed bool) *hypergraph.Hypergraph {
	h := hypergraph.New()
	var sets [][]graph.VertexID
	for len(sets) < edges {
		if len(sets) > 0 && len(sets)%4 == 3 {
			sets = append(sets, sets[rng.Intn(len(sets))])
			continue
		}
		size := k
		if mixed {
			size = 1 + rng.Intn(k)
		}
		perm := rng.Perm(vertices)
		vs := make([]graph.VertexID, size)
		for i := range vs {
			vs[i] = graph.VertexID(perm[i])
		}
		sets = append(sets, vs)
	}
	for _, vs := range sets {
		h.MustAddEdge(vs)
	}
	return h
}

// TestDualityOnRandomHypergraphs certifies the relaxation of 200 random
// hypergraphs and, on those small enough for an unbudgeted search, sandwiches
// it between the exact integral packing and cover (σ_MIES ≤ ν ≤ σ_MVC).
func TestDualityOnRandomHypergraphs(t *testing.T) {
	rng := gen.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		k := 2 + trial%3
		h := randomHypergraph(rng, 6+rng.Intn(20), 1+rng.Intn(60), k, trial%2 == 1)
		res := solveBothWays(t, h)
		certify(t, h, res)
		if h.NumEdges() > 30 {
			continue
		}
		if pack := h.MaximumIndependentEdgeSet(0); float64(pack.Size) > res.Value+1e-6 {
			t.Fatalf("trial %d: integral packing %d exceeds fractional %v", trial, pack.Size, res.Value)
		}
		if cover := h.MinimumVertexCover(0); float64(cover.Size) < res.Value-1e-6 {
			t.Fatalf("trial %d: integral cover %d below fractional %v", trial, cover.Size, res.Value)
		}
	}
}

// TestSolveDegenerateProblem drives the solver into Bland's rule. With every
// right-hand side equal to 1 a packing LP is degenerate at every vertex, yet
// Dantzig's rule rarely stalls for the 64 pivots the fallback waits for (no
// occurrence hypergraph of the benchmark does). The band |i-j| <= 1 of the
// complete bipartite graph on a_0..a_79, b_0..b_79, edges in row order, does:
// growing the matching by one re-routes an alternating path through pivots
// that move nothing, in runs that lengthen with i and pass 64 from n = 66.
// The answer must still be the perfect matching, certified.
func TestSolveDegenerateProblem(t *testing.T) {
	const n = 80
	h := hypergraph.New()
	for i := 0; i < n; i++ {
		for j := max(0, i-1); j <= min(n-1, i+1); j++ {
			h.MustAddEdge([]graph.VertexID{graph.VertexID(i), graph.VertexID(n + j)})
		}
	}
	bland := obs.Default.Counter("repro_lp_bland_pivots_total")
	before := bland.Value()
	res := lp.Solve(h)
	certify(t, h, res)
	if math.Abs(res.Value-n) > 1e-6 {
		t.Fatalf("got value %v, want the perfect matching %d", res.Value, n)
	}
	if bland.Value() == before {
		t.Fatal("Bland's rule was never reached")
	}
}

// FuzzRelaxationCertificate grows a hypergraph of at most 24 vertices and 40
// edges from the fuzz input — each edge is a size byte (1 to 4 mentions)
// followed by that many vertex bytes — and asserts the certificate together
// with the integral sandwich ⌈ν⌉ ≤ σ_MVC and σ_MIES ≤ ⌊ν⌋ against the
// unbudgeted exact solvers, and that an edge repeating an earlier vertex set
// is given exactly zero: it has no column to enter the basis with.
func FuzzRelaxationCertificate(f *testing.F) {
	f.Add([]byte{})
	// The triangle of Figure 2, six times over.
	f.Add([]byte{2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3})
	// The Figure 6 shape.
	f.Add([]byte{1, 1, 5, 1, 1, 6, 1, 1, 7, 1, 1, 8, 1, 2, 8, 1, 3, 8, 1, 4, 8})
	// A 5-cycle (ν = 2.5) with a singleton, a 4-edge and a repeated mention.
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 0, 0, 9, 3, 5, 6, 7, 8, 2, 5, 5, 6})
	// The occurrence hypergraph of a 3-leaf star pattern: five hub-and-leaves
	// sets, each once per automorphism of the pattern.
	var star []byte
	for _, set := range [][]byte{{0, 2, 3, 4}, {0, 2, 3, 5}, {0, 2, 4, 5}, {0, 3, 4, 5}, {1, 3, 4, 5}} {
		for rep := 0; rep < 6; rep++ {
			star = append(append(star, 3), set...)
		}
	}
	f.Add(star)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := hypergraph.New()
		for len(data) > 0 && h.NumEdges() < 40 {
			size := 1 + int(data[0])%4
			if len(data) < 1+size {
				break
			}
			vs := make([]graph.VertexID, size)
			for i := range vs {
				vs[i] = graph.VertexID(data[1+i] % 24)
			}
			h.MustAddEdge(vs)
			data = data[1+size:]
		}
		res := solveBothWays(t, h)
		certify(t, h, res)
		for e, first := range h.EdgeClasses() {
			if int(first) != e && math.Float64bits(res.Packing[e]) != 0 {
				t.Fatalf("%v %v: edge %d repeats edge %d and got y = %v", h, h.Edges(), e, first, res.Packing[e])
			}
		}
		if cover := h.MinimumVertexCover(0); int(math.Ceil(res.Value-1e-6)) > cover.Size {
			t.Fatalf("%v %v: integral cover %d below fractional %v", h, h.Edges(), cover.Size, res.Value)
		}
		if pack := h.MaximumIndependentEdgeSet(0); pack.Size > int(math.Floor(res.Value+1e-6)) {
			t.Fatalf("%v %v: integral packing %d exceeds fractional %v", h, h.Edges(), pack.Size, res.Value)
		}
	})
}
