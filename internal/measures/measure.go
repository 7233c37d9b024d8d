// Package measures implements every support measure studied in the paper on
// top of the hypergraph framework of package core:
//
//   - σ_MNI and σ_MNI(k)  — minimum-image-based support (Bringmann & Nijssen)
//   - σ_MI                — minimum instance support (Section 3.2, new)
//   - σ_MVC               — minimum vertex cover support (Section 3.3, new)
//   - σ_MIS / σ_MIES      — overlap-graph / hypergraph independent set support
//   - ν_MVC, ν_MIES       — polynomial-time LP relaxations (Section 4.3)
//   - MCP                 — greedy minimum clique partition baseline
//   - harmful- and structural-overlap variants of MIS (Section 4.5)
//
// All measures implement the Measure interface and are registered in a
// Registry so that CLIs, examples and the mining loop can select them by
// name. The package also provides the bounding-chain verifier for
//
//	σ_MIS = σ_MIES ≤ ν_MIES = ν_MVC ≤ σ_MVC ≤ σ_MI ≤ σ_MNI
//
// and an anti-monotonicity checker used by the property tests.
package measures

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Result is the outcome of computing one support measure for one pattern in
// one data graph.
type Result struct {
	// Measure is the canonical measure name (one of the Name* constants).
	Measure string
	// Value is the support. Integral measures report whole numbers; the LP
	// relaxations may report fractional values.
	Value float64
	// Exact reports whether the value is provably the measure's true value.
	// It is false when a branch-and-bound solver hit its node budget or when
	// the measure itself is an approximation (greedy variants).
	Exact bool
	// Witness optionally carries a human-readable description of the
	// certificate behind the value (a cover, an independent set, the
	// minimizing node subset, ...).
	Witness string
}

// String implements fmt.Stringer.
func (r Result) String() string {
	exact := "exact"
	if !r.Exact {
		exact = "approx"
	}
	return fmt.Sprintf("%s=%.4g (%s)", r.Measure, r.Value, exact)
}

// Measure computes a support value from a prepared Context.
type Measure interface {
	// Name returns the canonical name of the measure.
	Name() string
	// Compute evaluates the measure on the context.
	Compute(ctx *core.Context) (Result, error)
}

// Canonical measure names used throughout the library, the CLIs and the
// benchmark tables.
const (
	NameMNI            = "MNI"
	NameMNIK           = "MNIk"
	NameMI             = "MI"
	NameMVC            = "MVC"
	NameMVCApprox      = "MVC-approx"
	NameMIS            = "MIS"
	NameMIES           = "MIES"
	NameMIESGreedy     = "MIES-greedy"
	NameNuMVC          = "nuMVC"
	NameNuMIES         = "nuMIES"
	NameMCP            = "MCP"
	NameMISHarmful     = "MIS-HO"
	NameMISStructural  = "MIS-SO"
	NameOccurrences    = "occurrences"
	NameInstances      = "instances"
	nameUnknownMeasure = "unknown"
)

// Registry maps measure names to constructors so that callers can select
// measures by name (e.g. from a CLI flag).
type Registry struct {
	factories map[string]func() Measure
}

// NewRegistry returns a registry pre-populated with every measure in this
// package using its default configuration.
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]func() Measure)}
	r.Register(NameMNI, func() Measure { return MNI{} })
	r.Register(NameMNIK, func() Measure { return MNIK{K: 2} })
	r.Register(NameMI, func() Measure { return MI{} })
	r.Register(NameMVC, func() Measure { return MVC{} })
	r.Register(NameMVCApprox, func() Measure { return MVC{Approximate: true} })
	r.Register(NameMIS, func() Measure { return MIS{} })
	r.Register(NameMIES, func() Measure { return MIES{} })
	r.Register(NameMIESGreedy, func() Measure { return MIES{Approximate: true} })
	r.Register(NameNuMVC, func() Measure { return NuMVC{} })
	r.Register(NameNuMIES, func() Measure { return NuMIES{} })
	r.Register(NameMCP, func() Measure { return MCP{} })
	r.Register(NameMISHarmful, func() Measure { return MIS{Overlap: HarmfulOverlap} })
	r.Register(NameMISStructural, func() Measure { return MIS{Overlap: StructuralOverlap} })
	r.Register(NameOccurrences, func() Measure { return RawCount{Instances: false} })
	r.Register(NameInstances, func() Measure { return RawCount{Instances: true} })
	return r
}

// Register adds (or replaces) a measure factory under the given name.
func (r *Registry) Register(name string, factory func() Measure) {
	r.factories[name] = factory
}

// New returns a fresh measure instance for the given name.
func (r *Registry) New(name string) (Measure, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("measures: unknown measure %q (known: %v)", name, r.Names())
	}
	return f(), nil
}

// Names returns the registered measure names in sorted order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// requireMaterialized returns an error when a measure that needs the full
// occurrence list or a hypergraph is computed on a streaming context. Only
// MNI and the raw counts run on streamed aggregates; everything else needs a
// context built without core.Options.Streaming.
func requireMaterialized(ctx *core.Context, name string) error {
	if ctx.Materialized() {
		return nil
	}
	return fmt.Errorf("measures: %s requires a materialized context (build it without Streaming)", name)
}

// RawCount reports the plain occurrence or instance count. Neither is a valid
// (anti-monotonic) support measure — the paper uses them as reference values,
// and so do the experiments.
type RawCount struct {
	// Instances selects the instance count; otherwise the occurrence count.
	Instances bool
}

// Name implements Measure.
func (m RawCount) Name() string {
	if m.Instances {
		return NameInstances
	}
	return NameOccurrences
}

// Compute implements Measure.
func (m RawCount) Compute(ctx *core.Context) (Result, error) {
	if m.Instances {
		return Result{Measure: NameInstances, Value: float64(ctx.NumInstances()), Exact: true}, nil
	}
	return Result{Measure: NameOccurrences, Value: float64(ctx.NumOccurrences()), Exact: true}, nil
}
