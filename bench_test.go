// Benchmarks regenerating every paper-reproduction experiment of package
// internal/bench (`gbench -list` prints the index) as Go testing.B
// benchmarks. Each benchmark corresponds to one experiment row (F1-F10 for
// the paper's worked figures, E1-E7 for the quantitative claims); run them
// all with
//
//	go test -bench=. -benchmem
//
// The tables themselves (values rather than timings) are produced by
// cmd/gbench. These are working aids for the measure code; the performance
// benchmark of the system is the program under benchmark/.
package support_test

import (
	"fmt"
	"testing"

	support "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/isomorph"
	"repro/internal/lp"
	"repro/internal/measures"
	"repro/internal/miner"
)

// mustCtx builds a measure-evaluation context or fails the benchmark.
func mustCtx(b *testing.B, g *support.Graph, p *support.Pattern) *core.Context {
	b.Helper()
	ctx, err := core.NewContext(g, p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// benchmarkFigure evaluates the full default measure set on one paper figure.
func benchmarkFigure(b *testing.B, name string) {
	var fig support.Figure
	found := false
	for _, f := range support.PaperFigures() {
		if f.Name == name {
			fig, found = f, true
			break
		}
	}
	if !found {
		b.Fatalf("unknown figure %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev, err := support.Evaluate(fig.Graph, fig.Pattern)
		if err != nil {
			b.Fatal(err)
		}
		if err := ev.VerifyBoundingChain(); err != nil {
			b.Fatal(err)
		}
	}
}

// F1-F10: the paper's worked examples (Figure 7 is a schematic without
// counts and has no benchmark of its own).
func BenchmarkFigure1(b *testing.B)  { benchmarkFigure(b, "figure1") }
func BenchmarkFigure2(b *testing.B)  { benchmarkFigure(b, "figure2") }
func BenchmarkFigure3(b *testing.B)  { benchmarkFigure(b, "figure3") }
func BenchmarkFigure4(b *testing.B)  { benchmarkFigure(b, "figure4") }
func BenchmarkFigure5(b *testing.B)  { benchmarkFigure(b, "figure5") }
func BenchmarkFigure6(b *testing.B)  { benchmarkFigure(b, "figure6") }
func BenchmarkFigure8(b *testing.B)  { benchmarkFigure(b, "figure8") }
func BenchmarkFigure9(b *testing.B)  { benchmarkFigure(b, "figure9") }
func BenchmarkFigure10(b *testing.B) { benchmarkFigure(b, "figure10") }

// E1: bounding chain evaluation across representative workloads (full
// measure set including both NP-hard solvers and both LP relaxations).
func BenchmarkBoundingChain(b *testing.B) {
	type workload struct {
		name string
		g    *support.Graph
		p    *support.Pattern
	}
	triangle, err := support.NewPattern(support.NewGraphBuilder("tri").
		Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild())
	if err != nil {
		b.Fatal(err)
	}
	workloads := []workload{
		{"er-edge", support.ErdosRenyi(80, 0.05, 2, 1), support.SingleEdgePattern(1, 2)},
		{"ba-edge", support.BarabasiAlbert(80, 2, 2, 2), support.SingleEdgePattern(1, 2)},
		{"geo-triangle", support.RandomGeometric(60, 0.18, 1, 3), triangle},
	}
	for _, wl := range workloads {
		b.Run(wl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev, err := support.Evaluate(wl.g, wl.p)
				if err != nil {
					b.Fatal(err)
				}
				if err := ev.VerifyBoundingChain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E2: per-measure computation time as the number of occurrences grows
// (star-overlap workload). MNI and MI are linear in the number of
// occurrences; the LP relaxation is polynomial; the exact solvers are run on
// the same inputs for comparison (they stay feasible here because the LP
// certificate shortcut resolves the star workloads without search).
func BenchmarkMeasureScaling(b *testing.B) {
	sizes := []int{8, 32, 128}
	ms := map[string]measures.Measure{
		"MNI":         measures.MNI{},
		"MI":          measures.NewMI(),
		"MVC-approx":  measures.MVC{Approximate: true},
		"MIES-greedy": measures.MIES{Approximate: true},
		"nuMVC":       measures.NuMVC{},
		"MVC-exact":   measures.MVC{},
		"MIES-exact":  measures.MIES{},
	}
	pat := support.SingleEdgePattern(1, 2)
	for _, hubs := range sizes {
		g := gen.StarOverlap(hubs, 3, 1)
		ctx := mustCtx(b, g, pat)
		for name, m := range ms {
			b.Run(fmt.Sprintf("%s/occurrences=%d", name, ctx.NumOccurrences()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.Compute(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// E3: exact MVC vs its k-approximation.
func BenchmarkApproxQuality(b *testing.B) {
	g := support.ErdosRenyi(100, 0.04, 2, 5)
	p := support.SingleEdgePattern(1, 2)
	ctx := mustCtx(b, g, p)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (measures.MVC{}).Compute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("matching-approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (measures.MVC{Approximate: true}).Compute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E4: the two LP relaxations (they must agree by duality; the benchmark
// exercises the simplex solver on the packing LP from both directions).
func BenchmarkLPRelaxation(b *testing.B) {
	g := support.BarabasiAlbert(120, 2, 2, 9)
	p := support.SingleEdgePattern(1, 2)
	ctx := mustCtx(b, g, p)
	b.Run("nuMVC", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (measures.NuMVC{}).Compute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nuMIES", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (measures.NuMIES{}).Compute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E5: the overestimation workload — MNI/MI vs MVC/MIS on the star-overlap
// generator with a large fan-out.
func BenchmarkOverestimation(b *testing.B) {
	g := gen.StarOverlap(6, 16, 1)
	p := support.SingleEdgePattern(1, 2)
	ctx := mustCtx(b, g, p)
	for name, m := range map[string]measures.Measure{
		"MNI": measures.MNI{}, "MI": measures.NewMI(), "MVC": measures.MVC{}, "MIS": measures.MIS{},
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Compute(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E6: end-to-end frequent pattern mining with each support measure.
func BenchmarkMining(b *testing.B) {
	g := support.BarabasiAlbert(80, 2, 3, 4)
	configs := map[string]measures.Measure{
		"MNI":         measures.MNI{},
		"MI":          measures.NewMI(),
		"MVC-approx":  measures.MVC{Approximate: true},
		"MIES-greedy": measures.MIES{Approximate: true},
	}
	for name, m := range configs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mi, err := miner.New(g, miner.Config{MinSupport: 3, MaxPatternSize: 3, Measure: m})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mi.Mine(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E7: anti-monotonicity checking of one pattern/superpattern pair across the
// anti-monotonic measures (the property-test workload, benchmarked).
func BenchmarkAntiMonotonicity(b *testing.B) {
	fig2 := support.PaperFigures()[1] // figure2
	fig5 := support.PaperFigures()[4] // figure5 (triangle + pendant on the same graph)
	ms := []measures.Measure{measures.MNI{}, measures.NewMI(), measures.MVC{}, measures.MIES{}, measures.MIS{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reports, err := measures.CheckAntiMonotonicityAll(fig2.Graph, fig2.Pattern, fig5.Pattern, ms)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range reports {
			if !rep.Holds {
				b.Fatalf("anti-monotonicity violated: %+v", rep)
			}
		}
	}
}

// Ablation: the LP-certificate shortcut in the exact MVC/MIES solvers
// (internal/measures/mvc.go). "with-certificate" is the default measure
// path; "without-certificate" calls the branch-and-bound solver directly.
func BenchmarkAblationLPCertificate(b *testing.B) {
	g := support.ErdosRenyi(90, 0.05, 2, 6)
	p := support.SingleEdgePattern(1, 2)
	ctx := mustCtx(b, g, p)
	h := ctx.OccurrenceHypergraph()
	b.Run("MVC/with-certificate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (measures.MVC{}).Compute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MVC/without-certificate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = h.MinimumVertexCover(measures.DefaultMaxNodes)
		}
	})
	b.Run("MIES/with-certificate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (measures.MIES{}).Compute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MIES/without-certificate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = h.MaximumIndependentEdgeSet(measures.DefaultMaxNodes)
		}
	})
}

// Enumeration engine: sequential vs parallel occurrence enumeration of a
// 4-node star pattern over the CSR snapshot, plus the streaming context build
// that never materializes the occurrence list. The parallel/sequential ratio
// is the headline number of the streaming engine (root candidates are
// partitioned across GOMAXPROCS workers; on a single-core machine the two
// paths coincide, with the CSR substrate still well ahead of the original
// map-based enumeration).
func BenchmarkEnumeration4NodePattern(b *testing.B) {
	g := support.BarabasiAlbert(600, 3, 2, 7)
	star, err := support.NewPattern(support.NewGraphBuilder("star4").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Vertex(3, 2).
		Star(0, 1, 2, 3).MustBuild())
	if err != nil {
		b.Fatal(err)
	}
	snap := g.Freeze() // build the snapshot outside the timed region
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			occs := isomorph.EnumerateSnapshot(snap, star, isomorph.Options{Parallelism: 1})
			if len(occs) == 0 {
				b.Fatal("no occurrences")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			occs := isomorph.EnumerateSnapshot(snap, star, isomorph.Options{Parallelism: 0})
			if len(occs) == 0 {
				b.Fatal("no occurrences")
			}
		}
	})
	b.Run("streaming-context", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, err := core.NewContext(g, star, core.Options{Streaming: true})
			if err != nil {
				b.Fatal(err)
			}
			if ctx.NumOccurrences() == 0 {
				b.Fatal("no occurrences")
			}
		}
	})
}

// Ablation: occurrence enumeration and LP solver micro-benchmarks, the two
// substrate hot paths every measure depends on.
func BenchmarkSubstrates(b *testing.B) {
	g := support.BarabasiAlbert(150, 2, 2, 12)
	p := support.SingleEdgePattern(1, 2)
	b.Run("occurrence-enumeration", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewContext(g, p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	ctx := mustCtx(b, g, p)
	b.Run("packing-lp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lp.FractionalIndependentEdgeSet(ctx.OccurrenceHypergraph()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
