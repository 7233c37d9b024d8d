package measures

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
)

// OverlapMode selects the overlap notion used when building the overlap
// graph for the MIS measure (Section 4.5). Harmful and structural overlap are
// weaker than simple overlap, so the resulting overlap graphs are sparser and
// the corresponding MIS variants are at least as large as the simple-overlap
// MIS.
type OverlapMode int

const (
	// SimpleOverlap is vertex overlap (Definition 2.2.3), the default.
	SimpleOverlap OverlapMode = iota
	// HarmfulOverlap is the harmful overlap of Fiedler and Borgelt
	// (Definition 4.5.1).
	HarmfulOverlap
	// StructuralOverlap is the structural overlap introduced in
	// Definition 4.5.2.
	StructuralOverlap
)

// String implements fmt.Stringer.
func (m OverlapMode) String() string {
	switch m {
	case SimpleOverlap:
		return "simple"
	case HarmfulOverlap:
		return "harmful"
	case StructuralOverlap:
		return "structural"
	}
	return "unknown"
}

// MIS is the maximum-independent-set support of Vanetik et al.
// (Definition 2.2.7): the size of a maximum independent vertex set of the
// occurrence overlap graph. Under simple overlap that is a maximum set of
// pairwise disjoint hyperedges (Theorem 4.1), so it is computed as MIES is —
// same certificate, same search, same value and Exact flag — and only the
// witness is worded in overlap-graph terms. The overlap graph proper serves
// the harmful- and structural-overlap variants of Section 4.5, which have no
// hypergraph reading. Computing any of them is NP-hard; the exact solver is
// branch and bound with a configurable node budget.
type MIS struct {
	// Overlap selects the overlap notion; SimpleOverlap reproduces the
	// classical measure, the other modes the Section 4.5 variants.
	Overlap OverlapMode
	// MaxNodes bounds the exact solver's search; zero means DefaultMaxNodes.
	MaxNodes int
}

// Name implements Measure.
func (m MIS) Name() string {
	switch m.Overlap {
	case HarmfulOverlap:
		return NameMISHarmful
	case StructuralOverlap:
		return NameMISStructural
	}
	return NameMIS
}

// Compute implements Measure.
func (m MIS) Compute(ctx *core.Context) (Result, error) {
	if err := requireMaterialized(ctx, m.Name()); err != nil {
		return Result{}, err
	}
	h := ctx.OccurrenceHypergraph()
	if h.NumEdges() == 0 {
		return Result{Measure: m.Name(), Value: 0, Exact: true}, nil
	}

	if m.Overlap == SimpleOverlap {
		res, certified := independentEdgeSet(ctx, m.MaxNodes)
		witness := fmt.Sprintf("independent overlap-graph vertices %v", res.Edges)
		if certified {
			witness = fmt.Sprintf("greedy independent set of %d certified optimal by the LP relaxation", res.Size)
		}
		return Result{Measure: NameMIS, Value: float64(res.Size), Exact: res.Exact, Witness: witness}, nil
	}

	var pred hypergraph.OverlapPredicate
	switch m.Overlap {
	case HarmfulOverlap:
		occs := ctx.Occurrences()
		pred = func(a, b hypergraph.EdgeID) bool {
			kind := ctx.ClassifyOverlap(occs[int(a)], occs[int(b)], DefaultMIPolicy)
			return kind.Harmful
		}
	case StructuralOverlap:
		occs := ctx.Occurrences()
		pred = func(a, b hypergraph.EdgeID) bool {
			kind := ctx.ClassifyOverlap(occs[int(a)], occs[int(b)], DefaultMIPolicy)
			return kind.Structural
		}
	default:
		return Result{}, fmt.Errorf("measures: unknown overlap mode %d", m.Overlap)
	}

	budget := m.MaxNodes
	if budget == 0 {
		budget = DefaultMaxNodes
	}
	res := hypergraph.NewOverlapGraph(h, pred).MaximumIndependentSet(budget)
	return Result{
		Measure: m.Name(),
		Value:   float64(res.Size),
		Exact:   res.Exact,
		Witness: fmt.Sprintf("independent overlap-graph vertices %v", res.Members),
	}, nil
}

// independentEdgeSet computes σ_MIES = σ_MIS (Theorem 4.1) on a context with
// at least one occurrence: the greedy packing when it reaches the upper bound
// of the context's LP relaxation and is thereby certified maximum — only Size
// and Exact are set then, and certified is true — and otherwise the
// branch-and-bound search under the given node budget (zero means
// DefaultMaxNodes), which is handed the same bound and ends the moment it
// finds a packing that large. The certificate is tried first because it needs
// no quadratic structure; the search builds the conflict lists.
func independentEdgeSet(ctx *core.Context, maxNodes int) (res hypergraph.MatchingResult, certified bool) {
	h := ctx.OccurrenceHypergraph()
	_, upper := nuBounds(ctx)
	if size := h.GreedyIndependentEdgeSet().Size; upper > 0 && size >= upper {
		return hypergraph.MatchingResult{Size: size, Exact: true}, true
	}
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	return h.MaximumIndependentEdgeSetBounded(maxNodes, upper), false
}

// MIES is the maximum independent edge set support (Definition 4.2.1): the
// largest number of pairwise vertex-disjoint edges of the occurrence
// hypergraph (disjoint edges are distinct vertex sets, so the instance
// hypergraph packs the same). It equals MIS (Theorem 4.1) and is
// anti-monotonic (Theorem 4.2); it is NP-hard to compute exactly.
type MIES struct {
	// Approximate reports the greedy packing instead of the exact optimum.
	Approximate bool
	// MaxNodes bounds the exact solver's search; zero means DefaultMaxNodes.
	MaxNodes int
}

// Name implements Measure.
func (m MIES) Name() string {
	if m.Approximate {
		return NameMIESGreedy
	}
	return NameMIES
}

// Compute implements Measure.
func (m MIES) Compute(ctx *core.Context) (Result, error) {
	if err := requireMaterialized(ctx, m.Name()); err != nil {
		return Result{}, err
	}
	h := ctx.OccurrenceHypergraph()
	if h.NumEdges() == 0 {
		return Result{Measure: m.Name(), Value: 0, Exact: true}, nil
	}
	if m.Approximate {
		res := h.GreedyIndependentEdgeSet()
		return Result{
			Measure: NameMIESGreedy,
			Value:   float64(res.Size),
			Exact:   false,
			Witness: fmt.Sprintf("greedy packing of %d hyperedges", res.Size),
		}, nil
	}
	res, certified := independentEdgeSet(ctx, m.MaxNodes)
	witness := fmt.Sprintf("independent hyperedges %v", res.Edges)
	if certified {
		witness = fmt.Sprintf("greedy packing of %d certified optimal by the LP relaxation", res.Size)
	}
	return Result{Measure: NameMIES, Value: float64(res.Size), Exact: res.Exact, Witness: witness}, nil
}

// NuMIES is the polynomial-time LP relaxation of MIES (Definition 4.3.2): the
// optimal value of the fractional independent edge set LP. By LP duality it
// equals ν_MVC (Theorem 4.6).
type NuMIES struct{}

// Name implements Measure.
func (NuMIES) Name() string { return NameNuMIES }

// Compute implements Measure.
func (NuMIES) Compute(ctx *core.Context) (Result, error) {
	value, err := nu(ctx, NameNuMIES)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Measure: NameNuMIES,
		Value:   value,
		Exact:   true,
		Witness: fmt.Sprintf("fractional packing over %d hyperedges", ctx.OccurrenceHypergraph().NumEdges()),
	}, nil
}

// MCP is the greedy minimum clique partition support on the overlap graph,
// the Calders et al. baseline referenced in Chapter 5. The greedy partition
// upper-bounds the true MCP, which itself upper-bounds MIS.
type MCP struct{}

// Name implements Measure.
func (MCP) Name() string { return NameMCP }

// Compute implements Measure.
func (MCP) Compute(ctx *core.Context) (Result, error) {
	if err := requireMaterialized(ctx, NameMCP); err != nil {
		return Result{}, err
	}
	h := ctx.OccurrenceHypergraph()
	if h.NumEdges() == 0 {
		return Result{Measure: NameMCP, Value: 0, Exact: true}, nil
	}
	og := hypergraph.NewOverlapGraph(h, nil)
	res := og.GreedyCliquePartition()
	return Result{
		Measure: NameMCP,
		Value:   float64(res.Size),
		Exact:   false,
		Witness: fmt.Sprintf("greedy clique partition with %d classes", res.Size),
	}, nil
}
