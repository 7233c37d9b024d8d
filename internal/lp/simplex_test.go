package lp

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
)

func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSolveSimpleMinimization(t *testing.T) {
	// min x + y  s.t. x + y >= 1, x >= 0, y >= 0  -> optimum 1.
	p := NewProblem(Minimize)
	x := p.AddVariable(1)
	y := p.AddVariable(1)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, GE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal || !approxEqual(sol.Objective, 1, 1e-6) {
		t.Fatalf("got %+v, want optimal objective 1", sol)
	}
}

func TestSolveSimpleMaximization(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3 -> x=2, y=2, objective 10.
	p := NewProblem(Maximize)
	x := p.AddVariable(3)
	y := p.AddVariable(2)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, LE, 4)
	p.AddConstraint(map[int]float64{x: 1}, LE, 2)
	p.AddConstraint(map[int]float64{y: 1}, LE, 3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal || !approxEqual(sol.Objective, 10, 1e-6) {
		t.Fatalf("got %+v, want optimal objective 10", sol)
	}
	if !approxEqual(sol.Values[x], 2, 1e-6) || !approxEqual(sol.Values[y], 2, 1e-6) {
		t.Fatalf("got values %v, want x=2 y=2", sol.Values)
	}
}

func TestSolveEqualityConstraint(t *testing.T) {
	// min 2x + 3y s.t. x + y = 5, x <= 3 -> x=3, y=2, objective 12.
	p := NewProblem(Minimize)
	x := p.AddVariable(2)
	y := p.AddVariable(3)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 5)
	p.AddConstraint(map[int]float64{x: 1}, LE, 3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal || !approxEqual(sol.Objective, 12, 1e-6) {
		t.Fatalf("got %+v, want optimal objective 12", sol)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x >= 2 and x <= 1 simultaneously is infeasible.
	p := NewProblem(Minimize)
	x := p.AddVariable(1)
	p.AddConstraint(map[int]float64{x: 1}, GE, 2)
	p.AddConstraint(map[int]float64{x: 1}, LE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("got status %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// max x with only x >= 1 is unbounded.
	p := NewProblem(Maximize)
	x := p.AddVariable(1)
	p.AddConstraint(map[int]float64{x: 1}, GE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("got status %v, want unbounded", sol.Status)
	}
}

func TestSolveNoVariables(t *testing.T) {
	p := NewProblem(Minimize)
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for a problem without variables")
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3) -> optimum 3.
	p := NewProblem(Minimize)
	x := p.AddVariable(1)
	p.AddConstraint(map[int]float64{x: -1}, LE, -3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal || !approxEqual(sol.Objective, 3, 1e-6) {
		t.Fatalf("got %+v, want optimal objective 3", sol)
	}
}

func TestSolveDegenerateProblem(t *testing.T) {
	// A classic degenerate LP; the solver must still terminate at optimum 0
	// for the minimization of x1 subject to redundant constraints at the
	// origin.
	p := NewProblem(Minimize)
	x1 := p.AddVariable(1)
	x2 := p.AddVariable(0)
	p.AddConstraint(map[int]float64{x1: 1, x2: 1}, GE, 0)
	p.AddConstraint(map[int]float64{x1: 1}, GE, 0)
	p.AddConstraint(map[int]float64{x1: 1, x2: 2}, GE, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal || !approxEqual(sol.Objective, 0, 1e-6) {
		t.Fatalf("got %+v, want optimal objective 0", sol)
	}
}

// buildTriangleHypergraph returns the occurrence-hypergraph shape of Figure 2:
// several edges over the same three vertices.
func buildTriangleHypergraph() *hypergraph.Hypergraph {
	h := hypergraph.New()
	for i := 0; i < 6; i++ {
		h.MustAddEdge([]graph.VertexID{1, 2, 3})
	}
	return h
}

func TestFractionalVertexCoverTriangle(t *testing.T) {
	h := buildTriangleHypergraph()
	res, err := FractionalVertexCover(h)
	if err != nil {
		t.Fatalf("FractionalVertexCover: %v", err)
	}
	if res.Status != Optimal || !approxEqual(res.Value, 1, 1e-6) {
		t.Fatalf("got %+v, want value 1", res)
	}
}

func TestFractionalDualityOnFigure6Shape(t *testing.T) {
	// Star overlap shape from Figure 6: seven 2-uniform edges.
	h := hypergraph.New()
	edges := [][]graph.VertexID{{1, 5}, {1, 6}, {1, 7}, {1, 8}, {2, 8}, {3, 8}, {4, 8}}
	for _, e := range edges {
		h.MustAddEdge(e)
	}
	cover, err := FractionalVertexCover(h)
	if err != nil {
		t.Fatalf("FractionalVertexCover: %v", err)
	}
	packing, err := FractionalIndependentEdgeSet(h)
	if err != nil {
		t.Fatalf("FractionalIndependentEdgeSet: %v", err)
	}
	if cover.Status != Optimal || packing.Status != Optimal {
		t.Fatalf("statuses: cover=%v packing=%v", cover.Status, packing.Status)
	}
	if !approxEqual(cover.Value, packing.Value, 1e-6) {
		t.Fatalf("LP duality violated: cover=%v packing=%v", cover.Value, packing.Value)
	}
	if cover.Value < 2-1e-6 || cover.Value > 2+1e-6 {
		t.Fatalf("expected fractional optimum 2 for the Figure 6 shape, got %v", cover.Value)
	}
}

func TestFractionalEmptyHypergraph(t *testing.T) {
	h := hypergraph.New()
	cover, err := FractionalVertexCover(h)
	if err != nil || cover.Value != 0 {
		t.Fatalf("empty cover: %v %v", cover, err)
	}
	packing, err := FractionalIndependentEdgeSet(h)
	if err != nil || packing.Value != 0 {
		t.Fatalf("empty packing: %v %v", packing, err)
	}
}

func TestRoundedVertexCoverIsCover(t *testing.T) {
	h := hypergraph.New()
	rng := gen.NewRNG(11)
	// Random 3-uniform hypergraph over 20 vertices.
	for i := 0; i < 25; i++ {
		a := graph.VertexID(rng.Intn(20))
		b := graph.VertexID(rng.Intn(20))
		c := graph.VertexID(rng.Intn(20))
		if a == b || b == c || a == c {
			continue
		}
		h.MustAddEdge([]graph.VertexID{a, b, c})
	}
	frac, err := FractionalVertexCover(h)
	if err != nil {
		t.Fatalf("FractionalVertexCover: %v", err)
	}
	cover := RoundedVertexCover(h, frac)
	if !h.IsVertexCover(cover) {
		t.Fatalf("rounded set %v is not a vertex cover", cover)
	}
	if len(cover) > 3*int(frac.Value+1) {
		t.Fatalf("rounded cover size %d exceeds k*nu = %v", len(cover), 3*frac.Value)
	}
}

// TestDualityOnRandomHypergraphs is a property-style test: on random uniform
// hypergraphs the two LP relaxations must agree (strong duality) and be
// sandwiched between the greedy packing and the greedy cover sizes.
func TestDualityOnRandomHypergraphs(t *testing.T) {
	rng := gen.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		h := hypergraph.New()
		k := 2 + trial%3
		vertices := 8 + rng.Intn(12)
		edges := 5 + rng.Intn(15)
		for e := 0; e < edges; e++ {
			var vs []graph.VertexID
			seen := map[int]bool{}
			for len(vs) < k {
				v := rng.Intn(vertices)
				if seen[v] {
					continue
				}
				seen[v] = true
				vs = append(vs, graph.VertexID(v))
			}
			h.MustAddEdge(vs)
		}
		cover, err := FractionalVertexCover(h)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		packing, err := FractionalIndependentEdgeSet(h)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cover.Status != Optimal || packing.Status != Optimal {
			t.Fatalf("trial %d: statuses %v %v", trial, cover.Status, packing.Status)
		}
		if !approxEqual(cover.Value, packing.Value, 1e-5) {
			t.Fatalf("trial %d: duality gap cover=%v packing=%v", trial, cover.Value, packing.Value)
		}
		exactPack := h.MaximumIndependentEdgeSet(0)
		exactCover := h.MinimumVertexCover(0)
		if float64(exactPack.Size) > packing.Value+1e-6 {
			t.Fatalf("trial %d: integral packing %d exceeds fractional %v", trial, exactPack.Size, packing.Value)
		}
		if float64(exactCover.Size) < cover.Value-1e-6 {
			t.Fatalf("trial %d: integral cover %d below fractional %v", trial, exactCover.Size, cover.Value)
		}
	}
}
