// Package lp solves the one linear program the paper defines: the fractional
// independent edge set (packing) LP of Definition 4.3.2, whose optimum is both
// ν_MIES and, by LP duality (Theorem 4.6), ν_MVC of Definition 4.3.1. Solve
// lays the LP onto a dense tableau and runs a primal simplex with Dantzig
// pricing and Bland's anti-cycling fallback. There is no phase 1: every
// constraint is "sum of y over the edges at a vertex <= 1" with a non-negative
// right-hand side, so the all-slack basis is feasible from the start, and the
// covering LP is never solved on its own — its optimal x is read off the final
// objective row.
//
// A pivot subtracts multiples of the pivot row, which in a packing tableau
// is mostly zeros: its non-zero positions are gathered once per pivot, into a
// scratch slice owned by the solve, and every row is updated over those only —
// the skipped terms are x - f·0. Pivot sequence, every floating-point
// operation on a non-zero entry and hence ν's bits are those of the
// dense-row solver kept as the oracle in reference_test.go.
//
// The tableau has one column per edge, repeated vertex sets included: the
// measures solve the LP of a kernel (hypergraph.Kernel), in which no edge
// repeats or contains another.
//
// Solve is also a scheduling point: it yields the processor before it
// allocates the tableau and after the pivots, so that a garbage collection in
// flight does not ride through the burst of allocation and the scheduler-free
// arithmetic between them (see the comment in Solve).
//
// The solver targets the moderate sizes of instance hypergraphs (hundreds of
// vertices, thousands of edges), not industrial LP workloads.
package lp

import "math"

// Status describes the outcome of Solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Unbounded means the objective can be improved without limit; a packing
	// LP is bounded, so this only reports a numerical breakdown.
	Unbounded
	// IterationLimit means the solver stopped before convergence.
	IterationLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return "unknown"
}

const (
	eps           = 1e-9
	maxIterations = 200000
)

// runSimplex performs primal simplex iterations on the tableau for the given
// (minimization) objective, updating tab and basis in place. It returns the
// final status (Optimal, Unbounded or IterationLimit) together with the final
// objective row (z_j - c_j values, with the objective value in the last
// entry), which callers use for dual extraction.
//
// Reduced costs are maintained in an explicit objective row that is pivoted
// together with the constraint rows, so each iteration costs O(m * nnz) for
// the pivot, nnz being the non-zeros of the pivot row, and O(n) for pricing.
// Column selection uses Dantzig's rule (most negative reduced cost) and falls
// back to Bland's anti-cycling rule after a long run of degenerate pivots.
func runSimplex(tab [][]float64, basis []int, objective []float64, totalCols int) (Status, []float64) {
	m := len(tab)

	// Objective row: z_j - c_j form. Start from -c_j and eliminate the basic
	// columns so the row is expressed in terms of the current basis.
	objRow := make([]float64, totalCols+1)
	for j := 0; j < totalCols; j++ {
		objRow[j] = -objective[j]
	}
	for i := 0; i < m; i++ {
		cb := objective[basis[i]]
		if cb == 0 {
			continue
		}
		for j := 0; j <= totalCols; j++ {
			objRow[j] += cb * tab[i][j]
		}
	}

	degenerate := 0
	const (
		degenerateLimit = 64
		// priceEps is the pricing tolerance: reduced costs below it are
		// treated as zero so accumulated round-off never drives extra pivots.
		priceEps = 1e-7
		// spuriousEps guards the unboundedness check: a column whose reduced
		// cost is this small but has no positive tableau entries is numerical
		// noise, not a genuine unbounded ray.
		spuriousEps = 1e-5
	)
	// disabled marks columns that looked improving but turned out to be
	// round-off noise (no positive pivot entry and a tiny reduced cost).
	disabled := make([]bool, totalCols)
	// nonZero is this solve's scratch for the pivot row's non-zero columns,
	// refilled by every pivot and never reallocated.
	nonZero := make([]int32, 0, totalCols+1)
	pivots, blandPivots := uint64(0), uint64(0)
	defer func() {
		mPivots.Add(pivots)
		mBlandPivots.Add(blandPivots)
	}()

	for iter := 0; iter < maxIterations; iter++ {
		// Entering column: in the z_j - c_j convention kept in objRow, any
		// column with a positive entry improves the (minimization) objective.
		entering := -1
		if degenerate < degenerateLimit {
			best := priceEps
			for j := 0; j < totalCols; j++ {
				if !disabled[j] && objRow[j] > best {
					best = objRow[j]
					entering = j
				}
			}
		} else {
			// Bland's rule: smallest index with positive objective-row entry.
			for j := 0; j < totalCols; j++ {
				if !disabled[j] && objRow[j] > priceEps {
					entering = j
					blandPivots++
					break
				}
			}
		}
		if entering == -1 {
			return Optimal, objRow
		}
		// Ratio test; smallest basis index breaks ties (part of Bland's rule).
		leaving := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][entering] > eps {
				ratio := tab[i][totalCols] / tab[i][entering]
				if ratio < bestRatio-eps || (math.Abs(ratio-bestRatio) <= eps && (leaving == -1 || basis[i] < basis[leaving])) {
					bestRatio = ratio
					leaving = i
				}
			}
		}
		if leaving == -1 {
			if objRow[entering] <= spuriousEps {
				// Numerically insignificant column; ignore it and re-price.
				disabled[entering] = true
				continue
			}
			return Unbounded, objRow
		}
		if bestRatio <= eps {
			degenerate++
		} else {
			degenerate = 0
		}
		nonZero = pivot(tab, basis, leaving, entering, nonZero[:0])
		pivots++
		// Pivot the objective row as well.
		factor := objRow[entering]
		if math.Abs(factor) > eps {
			prow := tab[leaving]
			for _, j := range nonZero {
				objRow[j] -= factor * prow[j]
			}
		}
	}
	return IterationLimit, objRow
}

// pivot performs a standard tableau pivot on (row, col). It gathers the
// columns where the pivot row is non-zero into nonZero (passed in empty, with
// the capacity of a full row, and returned filled) and updates the other rows
// over those only: wherever the pivot row holds a zero, a dense update would
// subtract factor·0 and leave the entry as it was. No tableau entry is ever a
// negative zero — rows start as +0 and 1, a quotient by the positive pivot
// keeps its sign, and a difference is -0 only from a -0 — so "as it was" is
// exact, not just equal.
func pivot(tab [][]float64, basis []int, row, col int, nonZero []int32) []int32 {
	prow := tab[row]
	pv := prow[col]
	for j, x := range prow {
		if x != 0 {
			prow[j] = x / pv
			nonZero = append(nonZero, int32(j))
		}
	}
	for i := range tab {
		if i == row {
			continue
		}
		factor := tab[i][col]
		if math.Abs(factor) <= eps {
			continue
		}
		r := tab[i]
		for _, j := range nonZero {
			r[j] -= factor * prow[j]
		}
	}
	basis[row] = col
	return nonZero
}
