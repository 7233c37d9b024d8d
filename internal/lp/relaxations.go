package lp

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/hypergraph"
)

// RelaxationResult carries the optimal value and fractional solution of one
// of the LP relaxations of Section 4.3.
type RelaxationResult struct {
	// Value is the optimal objective value (ν_MVC or ν_MIES).
	Value float64
	// VertexValues maps hypergraph vertices to their fractional x(v) for the
	// vertex cover relaxation; nil for the edge relaxation.
	VertexValues map[graph.VertexID]float64
	// EdgeValues maps hypergraph edge IDs to their fractional y(e) for the
	// independent edge set relaxation; nil for the cover relaxation.
	EdgeValues map[hypergraph.EdgeID]float64
	Status     Status
}

// FractionalVertexCover solves the LP relaxation of the minimum vertex cover
// problem on h (Definition 4.3.1, the ν_MVC support):
//
//	minimize   sum_v x(v)
//	subject to sum_{v in e} x(v) >= 1   for every edge e
//	           0 <= x(v) <= 1
//
// Internally the solver works on the dual packing LP (Definition 4.3.2),
// which has an immediately feasible slack basis and therefore needs no
// phase-1 simplex; by strong LP duality (Theorem 4.6) the optimal values
// coincide and the fractional cover x is recovered from the packing LP's
// shadow prices. The explicit x(v) <= 1 bounds of the definition are
// redundant for the minimization and are not materialized.
func FractionalVertexCover(h *hypergraph.Hypergraph) (RelaxationResult, error) {
	vertices := h.Vertices()
	if h.NumEdges() == 0 {
		return RelaxationResult{Value: 0, VertexValues: map[graph.VertexID]float64{}, Status: Optimal}, nil
	}
	sol, order, err := solvePackingLP(h)
	if err != nil {
		return RelaxationResult{}, err
	}
	res := RelaxationResult{Value: sol.Objective, Status: sol.Status, VertexValues: make(map[graph.VertexID]float64, len(vertices))}
	if sol.Status == Optimal {
		if sol.Duals == nil {
			return RelaxationResult{}, fmt.Errorf("lp: packing LP returned no dual solution")
		}
		for i, v := range order {
			res.VertexValues[v] = sol.Duals[i]
		}
	}
	return res, nil
}

// FractionalIndependentEdgeSet solves the LP relaxation of the maximum
// independent edge set problem on h (Definition 4.3.2, the ν_MIES support),
// which is the LP dual of FractionalVertexCover:
//
//	maximize   sum_e y(e)
//	subject to sum_{e containing v} y(e) <= 1   for every vertex v
//	           0 <= y(e) <= 1
func FractionalIndependentEdgeSet(h *hypergraph.Hypergraph) (RelaxationResult, error) {
	m := h.NumEdges()
	if m == 0 {
		return RelaxationResult{Value: 0, EdgeValues: map[hypergraph.EdgeID]float64{}, Status: Optimal}, nil
	}
	sol, _, err := solvePackingLP(h)
	if err != nil {
		return RelaxationResult{}, err
	}
	res := RelaxationResult{Value: sol.Objective, Status: sol.Status, EdgeValues: make(map[hypergraph.EdgeID]float64, m)}
	if sol.Status == Optimal {
		for i := 0; i < m; i++ {
			res.EdgeValues[hypergraph.EdgeID(i)] = sol.Values[i]
		}
	}
	return res, nil
}

// solvePackingLP builds and solves the fractional independent edge set LP
//
//	maximize   sum_e y(e)
//	subject to sum_{e containing v} y(e) <= 1   for every vertex v
//	           y >= 0
//
// and returns the solution together with the vertex order used for the
// constraints (so callers can map constraint duals back to vertices). The
// y(e) <= 1 bounds of Definition 4.3.2 are implied by the vertex constraints
// and not materialized. Variable i is hypergraph edge i: AddVariable hands
// out dense indexes in call order, as AddEdge does.
func solvePackingLP(h *hypergraph.Hypergraph) (Solution, []graph.VertexID, error) {
	p := NewProblem(Maximize)
	for i := 0; i < h.NumEdges(); i++ {
		p.AddVariable(1)
	}
	order := h.Vertices()
	for _, v := range order {
		ids := h.IncidentEdges(v)
		coeffs := make(map[int]float64, len(ids))
		for _, id := range ids {
			coeffs[int(id)] = 1
		}
		p.AddConstraint(coeffs, LE, 1)
	}
	sol, err := p.Solve()
	if err != nil {
		return Solution{}, nil, err
	}
	return sol, order, nil
}

// RoundedVertexCover rounds a fractional vertex cover to an integral one
// using threshold rounding at 1/k for a k-uniform hypergraph: every vertex
// with x(v) >= 1/k is selected. For k-uniform hypergraphs this always yields
// a valid cover of size at most k times the LP optimum, giving the classical
// k-approximation via LP rounding.
func RoundedVertexCover(h *hypergraph.Hypergraph, frac RelaxationResult) []graph.VertexID {
	k, uniform := h.IsUniform()
	if !uniform || k == 0 {
		// Fall back to the largest edge cardinality.
		k = 0
		for _, e := range h.Edges() {
			if len(e.Vertices) > k {
				k = len(e.Vertices)
			}
		}
		if k == 0 {
			return nil
		}
	}
	threshold := 1.0 / float64(k)
	var cover []graph.VertexID
	for v, x := range frac.VertexValues {
		if x >= threshold-1e-9 {
			cover = append(cover, v)
		}
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return cover
}
