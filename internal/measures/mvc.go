package measures

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/lp"
)

// MVC is the minimum vertex cover support measure of Section 3.3: the size
// of a smallest vertex set of the instance hypergraph that intersects every
// hyperedge (the occurrence hypergraph has the same edges as vertex sets, hence
// the same covers). MVC is anti-monotonic (Theorem 3.5), bounded by
// MI from above (Theorem 3.6) and by MIES/MIS from below (Theorem 4.5), but
// computing it exactly is NP-hard. The exact solver is branch and bound on
// the context's kernel of H_I (core.Context.Kernel), whose every cover covers
// H_I and whose minimum is H_I's; the approximate variant reads H_I itself
// and is the textbook k-approximation for k-uniform hypergraphs (take all
// vertices of an uncovered edge).
type MVC struct {
	// Approximate skips the exact solver and reports the matching-based
	// k-approximation.
	Approximate bool
	// MaxNodes bounds the exact solver's search; zero means DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes is the default branch-and-bound node budget for the exact
// NP-hard solvers. The budget exists so that mining loops never hang on one
// adversarial pattern; when it is exhausted the best bound found so far is
// returned with Exact=false. Exact measures first try to certify a greedy
// solution against the context's one LP relaxation (mvcLPShortcut,
// independentEdgeSet), so the budget is only consumed on instances the bound does
// not close; MIS and MIES spend it in the same search, so under any budget
// they report the same value with the same Exact flag.
const DefaultMaxNodes = 200_000

// Name implements Measure.
func (m MVC) Name() string {
	if m.Approximate {
		return NameMVCApprox
	}
	return NameMVC
}

// Compute implements Measure.
func (m MVC) Compute(ctx *core.Context) (Result, error) {
	if err := requireMaterialized(ctx, m.Name()); err != nil {
		return Result{}, err
	}
	h := ctx.OccurrenceHypergraph()
	if h.NumEdges() == 0 {
		return Result{Measure: m.Name(), Value: 0, Exact: true}, nil
	}
	if m.Approximate {
		res := h.MatchingVertexCover()
		return Result{
			Measure: NameMVCApprox,
			Value:   float64(res.Size),
			Exact:   false,
			Witness: fmt.Sprintf("matching-based cover of %d vertices (k-approximation)", res.Size),
		}, nil
	}
	// LP certificate shortcut: if a polynomial heuristic cover already
	// matches the ceiling of the fractional optimum, it is provably minimum
	// (sigma_MVC is an integer >= nu_MVC), so the exponential search can be
	// skipped entirely. Both run on the kernel: a cover of it covers H_I.
	lower, _ := nuBounds(ctx)
	k, _ := ctx.Kernel()
	if size, ok := mvcLPShortcut(k, lower); ok {
		return Result{
			Measure: NameMVC,
			Value:   float64(size),
			Exact:   true,
			Witness: fmt.Sprintf("greedy cover of %d vertices certified optimal by the LP relaxation", size),
		}, nil
	}
	budget := m.MaxNodes
	if budget == 0 {
		budget = DefaultMaxNodes
	}
	// The search gets the same bound: it ends the moment it finds a cover of
	// that size rather than spending the budget on proving it minimum.
	res := k.MinimumVertexCoverBounded(budget, lower)
	return Result{
		Measure: NameMVC,
		Value:   float64(res.Size),
		Exact:   res.Exact,
		Witness: fmt.Sprintf("vertex cover %v", res.Cover),
	}, nil
}

// nuBounds returns the integer bounds the context's one LP relaxation puts
// on the exact measures: σ_MVC ≥ ⌈ν⌉ and σ_MIES = σ_MIS ≤ ⌊ν⌋, each taken with
// a 1e-6 allowance for round-off in ν. Both are zero — no bound — when the
// simplex stopped short of an optimum.
func nuBounds(ctx *core.Context) (coverLower, packingUpper int) {
	frac := ctx.Relaxation()
	if frac.Status != lp.Optimal {
		return 0, 0
	}
	return int(math.Ceil(frac.Value - 1e-6)), int(math.Floor(frac.Value + 1e-6))
}

// mvcLPShortcut reports whether the best polynomial heuristic cover of h is
// certified optimal by lower, the bound of nuBounds, and if so its size.
func mvcLPShortcut(h *hypergraph.Hypergraph, lower int) (int, bool) {
	best := h.GreedyVertexCover().Size
	if alt := h.MatchingVertexCover().Size; alt < best {
		best = alt
	}
	return best, best <= lower
}

// nu is the value both LP measures report: the optimum of the context's one
// relaxation, which is ν_MVC and ν_MIES at once (Theorem 4.6).
func nu(ctx *core.Context, name string) (float64, error) {
	if err := requireMaterialized(ctx, name); err != nil {
		return 0, err
	}
	frac := ctx.Relaxation()
	if frac.Status != lp.Optimal {
		return 0, fmt.Errorf("measures: %s: packing LP ended with status %v", name, frac.Status)
	}
	return frac.Value, nil
}

// NuMVC is the polynomial-time LP relaxation of MVC (Definition 4.3.1): the
// optimal value of the fractional vertex cover LP. By LP duality it equals
// ν_MIES (Theorem 4.6) and it is sandwiched between σ_MIES and σ_MVC.
type NuMVC struct{}

// Name implements Measure.
func (NuMVC) Name() string { return NameNuMVC }

// Compute implements Measure.
func (NuMVC) Compute(ctx *core.Context) (Result, error) {
	value, err := nu(ctx, NameNuMVC)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Measure: NameNuMVC,
		Value:   value,
		Exact:   true,
		Witness: fmt.Sprintf("fractional cover over %d vertices", ctx.OccurrenceHypergraph().NumVertices()),
	}, nil
}
