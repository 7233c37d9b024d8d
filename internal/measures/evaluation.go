package measures

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Evaluation holds the results of computing several measures on one context.
type Evaluation struct {
	// Context is the evaluated pattern/graph context.
	Context *core.Context
	// Results maps measure name to result.
	Results map[string]Result
}

// Evaluate computes the given measures on a context. When measures is empty
// the full default set is evaluated: occurrence/instance counts, MNI, MI,
// MVC (exact and approximate), MIES, MIS, the LP relaxations and MCP. On a
// streaming context the default set shrinks to the measures computable from
// streamed aggregates (the raw counts and MNI); explicitly requested measures
// are never substituted and error out if they need materialized state.
func Evaluate(ctx *core.Context, ms ...Measure) (*Evaluation, error) {
	if len(ms) == 0 {
		if ctx.Materialized() {
			ms = DefaultSet()
		} else {
			ms = StreamingSet()
		}
	}
	ev := &Evaluation{Context: ctx, Results: make(map[string]Result, len(ms))}
	for _, m := range ms {
		res, err := m.Compute(ctx)
		if err != nil {
			return nil, fmt.Errorf("measures: evaluating %s: %w", m.Name(), err)
		}
		ev.Results[res.Measure] = res
	}
	return ev, nil
}

// DefaultSet returns the measures evaluated when no explicit selection is
// given.
func DefaultSet() []Measure {
	return []Measure{
		RawCount{Instances: false},
		RawCount{Instances: true},
		MNI{},
		MI{},
		MVC{},
		MVC{Approximate: true},
		MIES{},
		MIS{},
		NuMVC{},
		NuMIES{},
		MCP{},
	}
}

// StreamingSet returns the measures computable on a streaming context: the
// raw occurrence/instance counts and MNI, all of which are maintained
// incrementally during enumeration.
func StreamingSet() []Measure {
	return []Measure{
		RawCount{Instances: false},
		RawCount{Instances: true},
		MNI{},
	}
}

// SupportsStreaming reports whether the measure can be computed on a
// streaming context, i.e. from the incrementally maintained aggregates alone
// (membership in StreamingSet by canonical name). Callers such as the miner
// use it to auto-select streaming contexts when materialization would be
// wasted.
func SupportsStreaming(m Measure) bool {
	for _, s := range StreamingSet() {
		if s.Name() == m.Name() {
			return true
		}
	}
	return false
}

// Value returns the value of the named measure, or an error if it was not
// part of the evaluation.
func (ev *Evaluation) Value(name string) (float64, error) {
	r, ok := ev.Results[name]
	if !ok {
		return 0, fmt.Errorf("measures: evaluation has no result for %q", name)
	}
	return r.Value, nil
}

// Names returns the evaluated measure names in sorted order.
func (ev *Evaluation) Names() []string {
	out := make([]string, 0, len(ev.Results))
	for n := range ev.Results {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// chainTolerance absorbs LP solver round-off when comparing fractional and
// integral measure values.
const chainTolerance = 1e-6

// VerifyBoundingChain checks every inequality of the paper's bounding chain
// (Section 4.4)
//
//	σ_MIS = σ_MIES ≤ ν_MIES = ν_MVC ≤ σ_MVC ≤ σ_MI ≤ σ_MNI
//
// that is checkable from the measures present in the evaluation, and returns
// an error describing the first violated relation. Relations involving
// measures that were not evaluated (or not computed exactly) are skipped, so
// the check never produces false alarms from truncated solvers.
func (ev *Evaluation) VerifyBoundingChain() error {
	exact := func(name string) (float64, bool) {
		r, ok := ev.Results[name]
		if !ok || !r.Exact {
			return 0, false
		}
		return r.Value, true
	}

	type relation struct {
		left, right string
		equal       bool
	}
	relations := []relation{
		{NameMIS, NameMIES, true},
		{NameNuMIES, NameNuMVC, true},
		{NameMIES, NameNuMIES, false},
		{NameMIS, NameNuMVC, false},
		{NameNuMVC, NameMVC, false},
		{NameMVC, NameMI, false},
		{NameMI, NameMNI, false},
		{NameMIES, NameMVC, false},
		{NameMIS, NameMNI, false},
	}
	for _, rel := range relations {
		l, okL := exact(rel.left)
		r, okR := exact(rel.right)
		if !okL || !okR {
			continue
		}
		if rel.equal {
			if diff := l - r; diff > chainTolerance || diff < -chainTolerance {
				return fmt.Errorf("measures: bounding chain violated: %s=%.6f should equal %s=%.6f", rel.left, l, rel.right, r)
			}
			continue
		}
		if l > r+chainTolerance {
			return fmt.Errorf("measures: bounding chain violated: %s=%.6f should be <= %s=%.6f", rel.left, l, rel.right, r)
		}
	}
	return nil
}

// AntiMonotonicityReport records the outcome of checking σ(p, G) ≥ σ(P, G)
// for one measure on one (subpattern, superpattern) pair.
type AntiMonotonicityReport struct {
	Measure    string
	SubValue   float64
	SuperValue float64
	Holds      bool
	// Exact reports whether both values were computed exactly. When an
	// NP-hard solver hit its node budget the reported value is only an upper
	// bound, so a "violation" with Exact == false is not a counterexample to
	// the measure's anti-monotonicity.
	Exact bool
}

// CheckAntiMonotonicity evaluates the given measure on a subpattern and a
// superpattern against the same data graph and reports whether the
// anti-monotonicity requirement σ(sub) ≥ σ(super) holds. Callers must ensure
// that super is actually a superpattern of sub (the miner's extension
// operators guarantee this by construction).
func CheckAntiMonotonicity(g *graph.Graph, sub, super *pattern.Pattern, m Measure) (AntiMonotonicityReport, error) {
	reports, err := CheckAntiMonotonicityAll(g, sub, super, []Measure{m})
	if err != nil {
		return AntiMonotonicityReport{}, err
	}
	return reports[0], nil
}

// CheckAntiMonotonicityAll is CheckAntiMonotonicity for several measures at
// once; the two occurrence enumerations are shared across all measures, which
// matters when checking many measures per pattern pair.
func CheckAntiMonotonicityAll(g *graph.Graph, sub, super *pattern.Pattern, ms []Measure) ([]AntiMonotonicityReport, error) {
	subCtx, err := core.NewContext(g, sub, core.Options{})
	if err != nil {
		return nil, err
	}
	superCtx, err := core.NewContext(g, super, core.Options{})
	if err != nil {
		return nil, err
	}
	reports := make([]AntiMonotonicityReport, 0, len(ms))
	for _, m := range ms {
		subRes, err := m.Compute(subCtx)
		if err != nil {
			return nil, err
		}
		superRes, err := m.Compute(superCtx)
		if err != nil {
			return nil, err
		}
		reports = append(reports, AntiMonotonicityReport{
			Measure:    m.Name(),
			SubValue:   subRes.Value,
			SuperValue: superRes.Value,
			Holds:      subRes.Value+chainTolerance >= superRes.Value,
			Exact:      subRes.Exact && superRes.Exact,
		})
	}
	return reports, nil
}
