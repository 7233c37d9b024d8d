package measures_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/measures"
	"repro/internal/pattern"
)

func mustContext(t *testing.T, g *graph.Graph, p *pattern.Pattern) *core.Context {
	t.Helper()
	ctx, err := core.NewContext(g, p, core.Options{})
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	return ctx
}

func TestRegistry(t *testing.T) {
	reg := measures.NewRegistry()
	names := reg.Names()
	if len(names) < 14 {
		t.Fatalf("expected at least 14 registered measures, got %v", names)
	}
	for _, n := range names {
		m, err := reg.New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if m.Name() != n {
			t.Errorf("measure registered under %q reports name %q", n, m.Name())
		}
	}
	if _, err := reg.New("bogus"); err == nil {
		t.Error("unknown measure name should error")
	}
	// Custom registration overrides.
	reg.Register("custom", func() measures.Measure { return measures.MNI{} })
	if m, err := reg.New("custom"); err != nil || m.Name() != measures.NameMNI {
		t.Errorf("custom registration failed: %v %v", m, err)
	}
}

func TestResultString(t *testing.T) {
	r := measures.Result{Measure: "MNI", Value: 3, Exact: true}
	if got := r.String(); got != "MNI=3 (exact)" {
		t.Errorf("String = %q", got)
	}
	r = measures.Result{Measure: "nuMVC", Value: 2.5, Exact: false}
	if got := r.String(); got != "nuMVC=2.5 (approx)" {
		t.Errorf("String = %q", got)
	}
}

func TestRawCounts(t *testing.T) {
	fig := dataset.Figure2()
	ctx := mustContext(t, fig.Graph, fig.Pattern)
	occ, err := measures.RawCount{}.Compute(ctx)
	if err != nil || occ.Value != 6 {
		t.Errorf("occurrence count = %v (%v)", occ.Value, err)
	}
	inst, err := measures.RawCount{Instances: true}.Compute(ctx)
	if err != nil || inst.Value != 1 {
		t.Errorf("instance count = %v (%v)", inst.Value, err)
	}
}

func TestMNIKReducesToMNIAtK1(t *testing.T) {
	for _, fig := range dataset.AllFigures() {
		ctx := mustContext(t, fig.Graph, fig.Pattern)
		mni, err := measures.MNI{}.Compute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		mnik, err := measures.MNIK{K: 1}.Compute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if mni.Value != mnik.Value {
			t.Errorf("%s: MNI=%v but MNIk(1)=%v", fig.Name, mni.Value, mnik.Value)
		}
	}
}

func TestMNIKMonotoneInK(t *testing.T) {
	// sigma_MNI(P, G, k) uses larger connected subsets as k grows, so for the
	// figures here it must not increase with k (every size-k image set
	// determines its subsets' images).
	fig := dataset.Figure2()
	ctx := mustContext(t, fig.Graph, fig.Pattern)
	prev := math.Inf(1)
	for k := 1; k <= fig.Pattern.Size(); k++ {
		r, err := measures.MNIK{K: k}.Compute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value > prev+1e-9 {
			t.Errorf("MNIk increased from %v to %v at k=%d", prev, r.Value, k)
		}
		prev = r.Value
	}
	// K larger than the pattern clamps to the pattern size, K<1 clamps to 1.
	large, err := measures.MNIK{K: 99}.Compute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if large.Value != 1 { // full-pattern image sets: only {1,2,3}
		t.Errorf("MNIk(99) = %v, want 1", large.Value)
	}
	small, err := measures.MNIK{K: -5}.Compute(ctx)
	if err != nil || small.Value != 3 {
		t.Errorf("MNIk(-5) = %v (%v), want MNI value 3", small.Value, err)
	}
}

func TestMIPolicyOrdering(t *testing.T) {
	// Larger subset collections can only lower the minimum:
	// MI_AllSubgraphs <= MI_Induced <= MI_PatternOnly.
	for _, fig := range dataset.AllFigures() {
		ctx := mustContext(t, fig.Graph, fig.Pattern)
		all, err := measures.MI{Policy: isomorph.AllSubgraphs}.Compute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		induced, err := measures.MI{Policy: isomorph.InducedSubpatterns}.Compute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		patternOnly, err := measures.MI{Policy: isomorph.PatternOnly}.Compute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if all.Value > induced.Value+1e-9 || induced.Value > patternOnly.Value+1e-9 {
			t.Errorf("%s: MI policy ordering violated: all=%v induced=%v patternOnly=%v",
				fig.Name, all.Value, induced.Value, patternOnly.Value)
		}
	}
}

func TestZeroOccurrenceResults(t *testing.T) {
	// A pattern with labels absent from the graph: every measure reports 0.
	g := graph.NewBuilder("g").Vertices(1, 1, 2).Edge(1, 2).MustBuild()
	ctx := mustContext(t, g, pattern.SingleEdge(5, 6))
	for _, m := range measures.DefaultSet() {
		r, err := m.Compute(ctx)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r.Value != 0 || !r.Exact {
			t.Errorf("%s on empty context = %+v, want exact 0", m.Name(), r)
		}
	}
	for _, m := range []measures.Measure{measures.MNIK{K: 2}, measures.MIS{Overlap: measures.HarmfulOverlap}, measures.MVC{Approximate: true}} {
		r, err := m.Compute(ctx)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r.Value != 0 {
			t.Errorf("%s on empty context = %v, want 0", m.Name(), r.Value)
		}
	}
}

func TestApproximationGuarantees(t *testing.T) {
	// The matching-based MVC approximation is within a factor k of the exact
	// MVC, and the greedy MIES is within a factor k below the exact MIES, on
	// random workloads (k = pattern size).
	patterns := []*pattern.Pattern{
		pattern.SingleEdge(1, 2),
		pattern.MustNew(graph.NewBuilder("p").Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild()),
	}
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.ErdosRenyi(40, 0.1, gen.UniformLabels{K: 2}, seed)
		for _, p := range patterns {
			ctx := mustContext(t, g, p)
			exact, err := measures.MVC{}.Compute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := measures.MVC{Approximate: true}.Compute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if exact.Exact && approx.Value > float64(p.Size())*exact.Value+1e-9 {
				t.Errorf("seed %d: MVC approx %v exceeds k*MVC = %v", seed, approx.Value, float64(p.Size())*exact.Value)
			}
			if approx.Value < exact.Value-1e-9 {
				t.Errorf("seed %d: approximation below the exact minimum", seed)
			}
			mies, err := measures.MIES{}.Compute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			greedy, err := measures.MIES{Approximate: true}.Compute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if greedy.Value > mies.Value+1e-9 {
				t.Errorf("seed %d: greedy MIES above the exact maximum", seed)
			}
			if mies.Exact && greedy.Value*float64(p.Size()) < mies.Value-1e-9 {
				t.Errorf("seed %d: greedy MIES %v below MIES/k = %v", seed, greedy.Value, mies.Value/float64(p.Size()))
			}
		}
	}
}

func TestEvaluateSelectionAndErrors(t *testing.T) {
	fig := dataset.Figure4()
	ctx := mustContext(t, fig.Graph, fig.Pattern)
	ev, err := measures.Evaluate(ctx, measures.MNI{}, measures.NewMI())
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Results) != 2 {
		t.Errorf("expected 2 results, got %v", ev.Names())
	}
	if _, err := ev.Value(measures.NameMNI); err != nil {
		t.Errorf("Value(MNI): %v", err)
	}
	if _, err := ev.Value(measures.NameMVC); err == nil {
		t.Error("Value of a measure that was not evaluated should error")
	}
	if names := ev.Names(); len(names) != 2 || names[0] > names[1] {
		t.Errorf("Names() = %v", names)
	}
}

// TestBoundingChainOnRandomWorkloads is the central property test of the
// package: on arbitrary random graphs and a pool of small patterns, the full
// bounding chain of Section 4.4 holds.
func TestBoundingChainOnRandomWorkloads(t *testing.T) {
	patterns := []*pattern.Pattern{
		pattern.SingleEdge(1, 1),
		pattern.SingleEdge(1, 2),
		pattern.MustNew(graph.NewBuilder("path").Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Path(0, 1, 2).MustBuild()),
		pattern.MustNew(graph.NewBuilder("tri").Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild()),
	}
	property := func(seed uint64) bool {
		g := gen.ErdosRenyi(30, 0.12, gen.UniformLabels{K: 2}, seed)
		for _, p := range patterns {
			ctx, err := core.NewContext(g, p, core.Options{})
			if err != nil {
				t.Log(err)
				return false
			}
			ev, err := measures.Evaluate(ctx)
			if err != nil {
				t.Log(err)
				return false
			}
			if err := ev.VerifyBoundingChain(); err != nil {
				t.Logf("seed %d, pattern %s: %v", seed, p, err)
				return false
			}
			// MCP (clique partition) upper-bounds MIS.
			if mcp, mis := ev.Results[measures.NameMCP], ev.Results[measures.NameMIS]; mcp.Value < mis.Value-1e-9 {
				t.Logf("seed %d: MCP %v below MIS %v", seed, mcp.Value, mis.Value)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestAntiMonotonicityOnRandomExtensions checks Theorems 3.2, 3.5, 4.2 on
// random extension chains: MNI, MI, MVC, MIES and MIS never increase when a
// pattern grows.
func TestAntiMonotonicityOnRandomExtensions(t *testing.T) {
	ms := []measures.Measure{
		measures.MNI{}, measures.NewMI(), measures.MVC{}, measures.MIES{}, measures.MIS{},
		measures.NuMVC{}, measures.NuMIES{},
	}
	property := func(seed uint64) bool {
		rng := gen.NewRNG(seed)
		g := gen.BarabasiAlbert(35, 2, gen.UniformLabels{K: 2}, seed)
		labels := g.Labels()
		// Start from a seed edge present in the graph and extend three times.
		edges := g.Edges()
		if len(edges) == 0 {
			return true
		}
		e := edges[rng.Intn(len(edges))]
		current := pattern.SingleEdge(g.MustLabelOf(e.U), g.MustLabelOf(e.V))
		for step := 0; step < 3; step++ {
			exts := current.Extend(labels)
			if len(exts) == 0 {
				break
			}
			next := exts[rng.Intn(len(exts))].Result
			reports, err := measures.CheckAntiMonotonicityAll(g, current, next, ms)
			if err != nil {
				t.Log(err)
				return false
			}
			for _, rep := range reports {
				if !rep.Holds && rep.Exact {
					t.Logf("seed %d: %s violated anti-monotonicity: sub=%v super=%v",
						seed, rep.Measure, rep.SubValue, rep.SuperValue)
					return false
				}
			}
			current = next
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestLPCertificateConsistency cross-checks the LP-certified fast path of the
// exact solvers against the branch-and-bound path: disabling the shortcut by
// using explicit small node budgets must still produce values consistent with
// the default configuration on small instances.
func TestLPCertificateConsistency(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := gen.ErdosRenyi(22, 0.15, gen.UniformLabels{K: 2}, seed)
		p := pattern.SingleEdge(1, 2)
		ctx := mustContext(t, g, p)
		def, err := measures.MVC{}.Compute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		raw := ctx.OccurrenceHypergraph().MinimumVertexCover(0)
		if def.Exact && raw.Exact && def.Value != float64(raw.Size) {
			t.Errorf("seed %d: MVC fast path %v != direct solver %d", seed, def.Value, raw.Size)
		}
		defM, err := measures.MIES{}.Compute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rawM := ctx.OccurrenceHypergraph().MaximumIndependentEdgeSet(0)
		if defM.Exact && rawM.Exact && defM.Value != float64(rawM.Size) {
			t.Errorf("seed %d: MIES fast path %v != direct solver %d", seed, defM.Value, rawM.Size)
		}
	}
}
