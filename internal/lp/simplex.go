// Package lp implements a small, dependency-free linear programming solver
// used for the polynomial-time relaxations of the MVC and MIES support
// measures (Definitions 4.3.1 and 4.3.2). The solver is a dense two-phase
// primal simplex with Bland's anti-cycling rule; it targets the moderate
// problem sizes produced by occurrence hypergraphs (hundreds of variables and
// constraints), not industrial LP workloads.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the optimization direction of a Problem.
type Sense int

const (
	// Minimize asks for the smallest objective value.
	Minimize Sense = iota
	// Maximize asks for the largest objective value.
	Maximize
)

// Op is a constraint comparison operator.
type Op int

const (
	// LE is "less than or equal".
	LE Op = iota
	// GE is "greater than or equal".
	GE
	// EQ is "equal".
	EQ
)

// Status describes the outcome of Solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set has no solution.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// IterationLimit means the solver stopped before convergence.
	IterationLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// constraint is one linear constraint sum_j coeffs[j]*x_j (op) rhs.
type constraint struct {
	coeffs map[int]float64
	op     Op
	rhs    float64
}

// Problem is a linear program over non-negative variables. Variables are
// identified by the dense index returned from AddVariable. Upper bounds are
// modeled as explicit constraints by AddBoundedVariable.
type Problem struct {
	sense       Sense
	objective   []float64
	constraints []constraint
}

// NewProblem returns an empty problem with the given optimization sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// AddVariable adds a non-negative variable with the given objective
// coefficient and returns its index.
func (p *Problem) AddVariable(objCoeff float64) int {
	p.objective = append(p.objective, objCoeff)
	return len(p.objective) - 1
}

// AddBoundedVariable adds a variable with 0 <= x <= upper and returns its
// index. The upper bound is added as an explicit constraint.
func (p *Problem) AddBoundedVariable(objCoeff, upper float64) int {
	idx := p.AddVariable(objCoeff)
	p.AddConstraint(map[int]float64{idx: 1}, LE, upper)
	return idx
}

// AddConstraint adds the constraint sum_j coeffs[j]*x_j (op) rhs. Variable
// indexes must have been returned by AddVariable.
func (p *Problem) AddConstraint(coeffs map[int]float64, op Op, rhs float64) {
	cp := make(map[int]float64, len(coeffs))
	for k, v := range coeffs {
		cp[k] = v
	}
	p.constraints = append(p.constraints, constraint{coeffs: cp, op: op, rhs: rhs})
}

// NumVariables returns the number of decision variables.
func (p *Problem) NumVariables() int { return len(p.objective) }

// NumConstraints returns the number of constraints.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	// Values holds the optimal value of each decision variable, indexed as
	// returned by AddVariable. Only meaningful when Status == Optimal.
	Values []float64
	// Duals holds, per constraint (in AddConstraint order), the shadow price
	// of the constraint: the rate of change of the optimal objective value of
	// the problem as stated per unit increase of the constraint's right-hand
	// side. For a Maximize problem whose constraints are all "<=" these are
	// exactly the standard non-negative dual variables. Duals is nil when the
	// problem required artificial variables (any ">=" or "=" constraint), as
	// the simple tableau extraction used here does not cover that case.
	Duals []float64
}

// ErrNoVariables is returned when Solve is called on a problem without
// variables.
var ErrNoVariables = errors.New("lp: problem has no variables")

const (
	eps           = 1e-9
	maxIterations = 200000
)

// Solve runs the two-phase simplex method and returns the solution.
func (p *Problem) Solve() (Solution, error) {
	n := len(p.objective)
	if n == 0 {
		return Solution{}, ErrNoVariables
	}
	m := len(p.constraints)

	// Build the standard-form tableau: every constraint becomes an equality
	// with slack/surplus variables, plus artificial variables where needed.
	// Column layout: [decision (n)] [slack/surplus (one per constraint that
	// needs one)] [artificial ...] [rhs].
	type rowSpec struct {
		coeffs []float64
		rhs    float64
		op     Op
	}
	rows := make([]rowSpec, m)
	for i, c := range p.constraints {
		coeffs := make([]float64, n)
		for j, v := range c.coeffs {
			if j < 0 || j >= n {
				return Solution{}, fmt.Errorf("lp: constraint %d references unknown variable %d", i, j)
			}
			coeffs[j] = v
		}
		rhs := c.rhs
		op := c.op
		if rhs < 0 {
			for j := range coeffs {
				coeffs[j] = -coeffs[j]
			}
			rhs = -rhs
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		rows[i] = rowSpec{coeffs: coeffs, rhs: rhs, op: op}
	}

	// Count auxiliary columns.
	numSlack := 0
	numArtificial := 0
	for _, r := range rows {
		switch r.op {
		case LE:
			numSlack++
		case GE:
			numSlack++
			numArtificial++
		case EQ:
			numArtificial++
		}
	}
	totalCols := n + numSlack + numArtificial
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackIdx := n
	artIdx := n + numSlack
	artificialCols := make([]int, 0, numArtificial)
	// slackColOf[i] is the slack column of row i when the row is a plain LE
	// row (used for dual extraction); -1 otherwise.
	slackColOf := make([]int, m)

	for i, r := range rows {
		row := make([]float64, totalCols+1)
		copy(row, r.coeffs)
		row[totalCols] = r.rhs
		slackColOf[i] = -1
		switch r.op {
		case LE:
			row[slackIdx] = 1
			basis[i] = slackIdx
			slackColOf[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			basis[i] = artIdx
			artificialCols = append(artificialCols, artIdx)
			artIdx++
		case EQ:
			row[artIdx] = 1
			basis[i] = artIdx
			artificialCols = append(artificialCols, artIdx)
			artIdx++
		}
		tab[i] = row
	}

	// Phase 1: minimize the sum of artificial variables.
	if numArtificial > 0 {
		phase1Obj := make([]float64, totalCols)
		for _, c := range artificialCols {
			phase1Obj[c] = 1
		}
		status, _ := runSimplex(tab, basis, phase1Obj, totalCols)
		if status == IterationLimit {
			return Solution{Status: IterationLimit}, nil
		}
		sum := 0.0
		for i, b := range basis {
			if isArtificial(b, n+numSlack) {
				sum += tab[i][totalCols]
			}
		}
		if sum > 1e-6 {
			return Solution{Status: Infeasible}, nil
		}
		// Drive remaining artificial variables out of the basis when possible.
		for i, b := range basis {
			if !isArtificial(b, n+numSlack) {
				continue
			}
			pivoted := false
			for j := 0; j < n+numSlack; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j, totalCols)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; zero it out so it cannot affect phase 2.
				for j := 0; j <= totalCols; j++ {
					tab[i][j] = 0
				}
			}
		}
	}

	// Phase 2: optimize the real objective (always as a minimization).
	objective := make([]float64, totalCols)
	for j := 0; j < n; j++ {
		if p.sense == Minimize {
			objective[j] = p.objective[j]
		} else {
			objective[j] = -p.objective[j]
		}
	}
	// Forbid artificial variables from re-entering by giving them a huge cost.
	for _, c := range artificialCols {
		objective[c] = 1e12
	}
	status, objRow := runSimplex(tab, basis, objective, totalCols)
	if status != Optimal {
		return Solution{Status: status}, nil
	}

	values := make([]float64, n)
	for i, b := range basis {
		if b < n {
			values[b] = tab[i][totalCols]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.objective[j] * values[j]
	}
	sol := Solution{Status: Optimal, Objective: obj, Values: values}

	// Dual extraction (shadow prices) for problems without artificial
	// variables: the shadow price of a LE row is the objective-row entry of
	// its slack column, negated for Maximize problems (the tableau always
	// minimizes internally) and negated again for rows whose right-hand side
	// had to be sign-flipped during normalization.
	if numArtificial == 0 {
		duals := make([]float64, m)
		for i := 0; i < m; i++ {
			col := slackColOf[i]
			if col < 0 {
				duals = nil
				break
			}
			d := objRow[col]
			if p.sense == Maximize {
				d = -d
			}
			if p.constraints[i].rhs < 0 {
				d = -d
			}
			duals[i] = d
		}
		sol.Duals = duals
	}
	return sol, nil
}

func isArtificial(col, artStart int) bool { return col >= artStart }

// runSimplex performs primal simplex iterations on the tableau for the given
// (minimization) objective, updating tab and basis in place. It returns the
// final status (Optimal, Unbounded or IterationLimit) together with the final
// objective row (z_j - c_j values, with the objective value in the last
// entry), which callers use for dual extraction.
//
// Reduced costs are maintained in an explicit objective row that is pivoted
// together with the constraint rows, so each iteration costs O(m * n) for the
// pivot and O(n) for pricing. Column selection uses Dantzig's rule (most
// negative reduced cost) and falls back to Bland's anti-cycling rule after a
// long run of degenerate pivots.
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
		pivot(tab, basis, leaving, entering, totalCols)
		// Pivot the objective row as well.
		factor := objRow[entering]
		if math.Abs(factor) > eps {
			for j := 0; j <= totalCols; j++ {
				objRow[j] -= factor * tab[leaving][j]
			}
		}
	}
	return IterationLimit, objRow
}

// pivot performs a standard tableau pivot on (row, col).
func pivot(tab [][]float64, basis []int, row, col, totalCols int) {
	pv := tab[row][col]
	for j := 0; j <= totalCols; j++ {
		tab[row][j] /= pv
	}
	for i := range tab {
		if i == row {
			continue
		}
		factor := tab[i][col]
		if math.Abs(factor) <= eps {
			continue
		}
		for j := 0; j <= totalCols; j++ {
			tab[i][j] -= factor * tab[row][j]
		}
	}
	basis[row] = col
}
