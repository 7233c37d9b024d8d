package lp

import (
	"runtime"

	"repro/internal/hypergraph"
)

// RelaxationResult is the optimum of the packing LP of a hypergraph together
// with an optimal solution of each side of the duality: Packing is feasible
// for Definition 4.3.2, Cover for Definition 4.3.1, and both sum to Value —
// each up to floating-point round-off (an entry may read -1e-16).
type RelaxationResult struct {
	// Value is the optimal objective value, ν_MIES = ν_MVC.
	Value float64
	// Packing holds the fractional y(e) of every edge, indexed by EdgeID.
	Packing []float64
	// Cover holds the fractional x(v) of every vertex, aligned with the
	// hypergraph's Vertices().
	Cover []float64
	// Status is Optimal unless the simplex stopped short; Value, Packing and
	// Cover are only meaningful when it is.
	Status Status
}

// Solve solves the fractional independent edge set LP of h (Definition 4.3.2)
//
//	maximize   sum_e y(e)
//	subject to sum_{e containing v} y(e) <= 1   for every vertex v
//	           y >= 0
//
// and returns its value, the optimal y and — as the shadow prices of the
// vertex constraints — an optimal x of the dual fractional vertex cover LP
// (Definition 4.3.1). The tableau has one column per edge, in EdgeID order,
// followed by one slack column per vertex row, in Vertices() order. The
// y(e) <= 1 and x(v) <= 1 bounds of the definitions are implied by the
// constraints and not materialized.
func Solve(h *hypergraph.Hypergraph) RelaxationResult {
	mSolves.Inc()
	n := h.NumEdges()
	if n == 0 {
		return RelaxationResult{Status: Optimal}
	}
	vertices := h.Vertices()
	totalCols := n + len(vertices)
	// Solve yields the processor on the way in and again after the pivots. It
	// allocates its tableau in one burst and then computes for milliseconds
	// without a scheduling point, and a collector cycle whose workers have
	// used up their share is only finished at the caller's next one: all that
	// is allocated until then counts as live and doubles into the next heap
	// goal. In a process that does nothing but evaluate, that made peak RSS on
	// eval-measures read anywhere from 22 to 33 MB from one run to the next;
	// with the two yields it reads 21-24 (PR 22 in CHANGES.md).
	runtime.Gosched()
	tab := make([][]float64, len(vertices))
	basis := make([]int, len(vertices))
	// A make per row, not one block: one multi-megabyte allocation per solve
	// read up to 25 % more peak RSS on eval-measures (PR 22 in CHANGES.md).
	for i, v := range vertices {
		row := make([]float64, totalCols+1)
		for _, e := range h.IncidentEdges(v) {
			row[e] = 1
		}
		row[n+i] = 1
		row[totalCols] = 1
		tab[i] = row
		basis[i] = n + i
	}
	// The tableau minimizes, so maximizing sum y is minimizing -sum y.
	objective := make([]float64, totalCols)
	for j := 0; j < n; j++ {
		objective[j] = -1
	}
	status, objRow := runSimplex(tab, basis, objective, totalCols)
	runtime.Gosched()
	res := RelaxationResult{Status: status}
	if status != Optimal {
		return res
	}
	res.Packing = make([]float64, n)
	for i, b := range basis {
		if b < n {
			res.Packing[b] = tab[i][totalCols]
		}
	}
	// Summed in edge order: ν is held to the bit, and float addition is not
	// associative.
	for _, y := range res.Packing {
		res.Value += y
	}
	// The shadow price of a vertex row is the objective-row entry of its
	// slack column, negated because the tableau minimizes.
	res.Cover = make([]float64, len(vertices))
	for i := range res.Cover {
		res.Cover[i] = -objRow[n+i]
	}
	return res
}

// FractionalVertexCover is Solve under the name of Definition 4.3.1 (the
// ν_MVC support): read Value and Cover.
func FractionalVertexCover(h *hypergraph.Hypergraph) (RelaxationResult, error) {
	return Solve(h), nil
}

// FractionalIndependentEdgeSet is Solve under the name of Definition 4.3.2
// (the ν_MIES support): read Value and Packing.
func FractionalIndependentEdgeSet(h *hypergraph.Hypergraph) (RelaxationResult, error) {
	return Solve(h), nil
}
