package measures_test

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/measures"
)

// TestFigureSupports checks every support value and raw count the paper
// states for its worked figures (the F1-F10 fixtures of package dataset).
func TestFigureSupports(t *testing.T) {
	for _, fig := range dataset.AllFigures() {
		fig := fig
		t.Run(fig.Name, func(t *testing.T) {
			ctx, err := core.NewContext(fig.Graph, fig.Pattern, core.Options{})
			if err != nil {
				t.Fatalf("NewContext: %v", err)
			}
			if fig.ExpectedOccurrences >= 0 && ctx.NumOccurrences() != fig.ExpectedOccurrences {
				t.Errorf("occurrences = %d, want %d", ctx.NumOccurrences(), fig.ExpectedOccurrences)
			}
			if fig.ExpectedInstances >= 0 && ctx.NumInstances() != fig.ExpectedInstances {
				t.Errorf("instances = %d, want %d", ctx.NumInstances(), fig.ExpectedInstances)
			}

			check := func(name string, m measures.Measure, want float64) {
				if want < 0 {
					return
				}
				res, err := m.Compute(ctx)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if math.Abs(res.Value-want) > 1e-9 {
					t.Errorf("%s = %v, want %v (witness: %s)", name, res.Value, want, res.Witness)
				}
				if !res.Exact {
					t.Errorf("%s reported as inexact on a tiny figure graph", name)
				}
			}
			check("MNI", measures.MNI{}, fig.ExpectedMNI)
			check("MI", measures.NewMI(), fig.ExpectedMI)
			check("MVC", measures.MVC{}, fig.ExpectedMVC)
			check("MIS", measures.MIS{}, fig.ExpectedMIS)
			check("MIES", measures.MIES{}, fig.ExpectedMIS) // Theorem 4.1: MIES = MIS
		})
	}
}

// TestFigureWitnesses pins value, exactness and witness string of every
// registered measure on every figure against a golden recorded before the
// instance hypergraph, the hyperedge labels and imageKey were deleted (PR 18):
// witnesses print hyperedge indexes, covers and minimizing subsets, none of
// which reach a CLI or wire body, so nothing else holds them still.
func TestFigureWitnesses(t *testing.T) {
	want, err := os.ReadFile("testdata/witnesses.golden")
	if err != nil {
		t.Fatal(err)
	}
	reg := measures.NewRegistry()
	var got strings.Builder
	for _, fig := range dataset.AllFigures() {
		ctx, err := core.NewContext(fig.Graph, fig.Pattern, core.Options{})
		if err != nil {
			t.Fatalf("%s: NewContext: %v", fig.Name, err)
		}
		for _, name := range reg.Names() {
			m, err := reg.New(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Compute(ctx)
			if err != nil {
				t.Fatalf("%s: %s: %v", fig.Name, name, err)
			}
			fmt.Fprintf(&got, "%s %s | %s\n", fig.Name, res, res.Witness)
		}
	}
	if got.String() != string(want) {
		t.Errorf("witnesses moved:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestFigureBoundingChain verifies the full bounding chain of Section 4.4 on
// every figure fixture.
func TestFigureBoundingChain(t *testing.T) {
	for _, fig := range dataset.AllFigures() {
		fig := fig
		t.Run(fig.Name, func(t *testing.T) {
			ctx, err := core.NewContext(fig.Graph, fig.Pattern, core.Options{})
			if err != nil {
				t.Fatalf("NewContext: %v", err)
			}
			ev, err := measures.Evaluate(ctx)
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			if err := ev.VerifyBoundingChain(); err != nil {
				t.Errorf("bounding chain: %v", err)
			}
		})
	}
}

// TestFigure5AntiMonotonicity replays the paper's Figure 5 walk-through: when
// the triangle pattern (Figure 2) is extended with a pendant node, the MI and
// MVC supports must not increase.
func TestFigure5AntiMonotonicity(t *testing.T) {
	fig2 := dataset.Figure2()
	fig5 := dataset.Figure5()
	for _, m := range []measures.Measure{measures.NewMI(), measures.MVC{}, measures.MNI{}, measures.MIES{}, measures.MIS{}} {
		report, err := measures.CheckAntiMonotonicity(fig2.Graph, fig2.Pattern, fig5.Pattern, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !report.Holds {
			t.Errorf("%s: anti-monotonicity violated: sub=%v super=%v", m.Name(), report.SubValue, report.SuperValue)
		}
	}
}

// TestFigure9OverlapClassification checks the structural/harmful overlap
// classification the paper derives from Figure 9: g1/g2 overlap structurally
// but not harmfully, and g1/g3 overlap both ways.
func TestFigure9OverlapClassification(t *testing.T) {
	fig := dataset.Figure9()
	ctx, err := core.NewContext(fig.Graph, fig.Pattern, core.Options{})
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	occs := ctx.Occurrences()
	if len(occs) != 3 {
		t.Fatalf("expected 3 occurrences, got %d", len(occs))
	}
	// Identify g1 (starts at data vertex 1), g2 (ends at 4) and g3 (ends at 2).
	var g1, g2, g3 int = -1, -1, -1
	for i, o := range occs {
		v0 := o.MustImage(0)
		v2 := o.MustImage(2)
		switch {
		case v0 == 1:
			g1 = i
		case v2 == 4:
			g2 = i
		case v2 == 2:
			g3 = i
		}
	}
	if g1 < 0 || g2 < 0 || g3 < 0 {
		t.Fatalf("could not identify g1, g2, g3 among occurrences %v", occs)
	}
	k12 := ctx.ClassifyOverlap(occs[g1], occs[g2], measures.DefaultMIPolicy)
	if !k12.Simple || !k12.Structural || k12.Harmful {
		t.Errorf("g1/g2: got %+v, want simple+structural, not harmful", k12)
	}
	k13 := ctx.ClassifyOverlap(occs[g1], occs[g3], measures.DefaultMIPolicy)
	if !k13.Simple || !k13.Structural || !k13.Harmful {
		t.Errorf("g1/g3: got %+v, want simple+structural+harmful", k13)
	}
}

// TestFigure10OverlapClassification checks the overlap taxonomy of Figure 10:
// f1/f2 overlap harmfully but not structurally, f2/f3 overlap only simply,
// and f1/f3 do not overlap at all.
func TestFigure10OverlapClassification(t *testing.T) {
	fig := dataset.Figure10()
	ctx, err := core.NewContext(fig.Graph, fig.Pattern, core.Options{})
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	occs := ctx.Occurrences()
	if len(occs) != 3 {
		t.Fatalf("expected 3 occurrences, got %d", len(occs))
	}
	var f1, f2, f3 int = -1, -1, -1
	for i, o := range occs {
		switch o.MustImage(0) {
		case 1:
			f1 = i
		case 5:
			f2 = i
		case 6:
			f3 = i
		}
	}
	if f1 < 0 || f2 < 0 || f3 < 0 {
		t.Fatalf("could not identify f1, f2, f3 among occurrences %v", occs)
	}
	k12 := ctx.ClassifyOverlap(occs[f1], occs[f2], measures.DefaultMIPolicy)
	if !k12.Simple || !k12.Harmful || k12.Structural {
		t.Errorf("f1/f2: got %+v, want simple+harmful, not structural", k12)
	}
	k23 := ctx.ClassifyOverlap(occs[f2], occs[f3], measures.DefaultMIPolicy)
	if !k23.Simple || k23.Harmful || k23.Structural {
		t.Errorf("f2/f3: got %+v, want simple only", k23)
	}
	k13 := ctx.ClassifyOverlap(occs[f1], occs[f3], measures.DefaultMIPolicy)
	if k13.Simple || k13.Harmful || k13.Structural {
		t.Errorf("f1/f3: got %+v, want no overlap", k13)
	}
}

// TestOverlapVariantsOrder verifies that the MIS variants built from the
// weaker overlap notions are at least as large as the simple-overlap MIS,
// because their overlap graphs are subgraphs of the simple-overlap one.
func TestOverlapVariantsOrder(t *testing.T) {
	for _, fig := range dataset.AllFigures() {
		ctx, err := core.NewContext(fig.Graph, fig.Pattern, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", fig.Name, err)
		}
		simple, err := measures.MIS{}.Compute(ctx)
		if err != nil {
			t.Fatalf("%s: %v", fig.Name, err)
		}
		for _, mode := range []measures.OverlapMode{measures.HarmfulOverlap, measures.StructuralOverlap} {
			variant, err := (measures.MIS{Overlap: mode}).Compute(ctx)
			if err != nil {
				t.Fatalf("%s (%v): %v", fig.Name, mode, err)
			}
			if variant.Value < simple.Value-1e-9 {
				t.Errorf("%s: MIS under %v overlap = %v, smaller than simple-overlap MIS = %v",
					fig.Name, mode, variant.Value, simple.Value)
			}
		}
	}
}
