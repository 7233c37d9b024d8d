package support_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	support "repro"
)

// TestFacadeQuickstart exercises the documented happy path of the public API
// end to end: build graph, build pattern, evaluate, verify, format.
func TestFacadeQuickstart(t *testing.T) {
	g, err := support.NewGraphBuilder("demo").
		Vertices(1, 1, 2, 3, 4, 5, 6).
		Cycle(1, 2, 3).
		Edge(2, 4).Edge(3, 5).Edge(3, 6).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pg, err := support.NewGraphBuilder("triangle").
		Vertices(1, 0, 1, 2).
		Cycle(0, 1, 2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := support.NewPattern(pg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := support.Evaluate(g, p)
	if err != nil {
		t.Fatal(err)
	}
	mni, err := ev.Value(support.MNI)
	if err != nil || mni != 3 {
		t.Errorf("MNI = %v (%v), want 3", mni, err)
	}
	mi, err := ev.Value(support.MI)
	if err != nil || mi != 1 {
		t.Errorf("MI = %v (%v), want 1", mi, err)
	}
	if err := support.VerifyBoundingChain(g, p); err != nil {
		t.Errorf("VerifyBoundingChain: %v", err)
	}
	report := support.FormatEvaluation(ev)
	for _, want := range []string{"MNI", "MI", "MVC", "MIS", "nuMVC"} {
		if !strings.Contains(report, want) {
			t.Errorf("formatted evaluation missing %q:\n%s", want, report)
		}
	}
}

func TestFacadeMeasureSelection(t *testing.T) {
	fig := support.PaperFigures()[1] // figure2
	ev, err := support.Evaluate(fig.Graph, fig.Pattern, support.MNI, support.MVCApprox)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Results) != 2 {
		t.Errorf("expected exactly the requested measures, got %v", ev.Names())
	}
	if _, err := support.Evaluate(fig.Graph, fig.Pattern, "not-a-measure"); err == nil {
		t.Error("unknown measure name should error")
	}
	names := support.MeasureNames()
	if len(names) < 14 {
		t.Errorf("MeasureNames = %v", names)
	}
	m, err := support.NewMeasure(support.MIES)
	if err != nil || m.Name() != support.MIES {
		t.Errorf("NewMeasure: %v %v", m, err)
	}
}

// TestFacadeContextAndCounts reads the raw counts off the Context an
// evaluation carries, with and without a per-request occurrence cap.
func TestFacadeContextAndCounts(t *testing.T) {
	fig := support.PaperFigures()[1] // figure2
	eng, err := support.NewEngine(fig.Graph, support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Do(&support.Request{Pattern: fig.Pattern, Measures: []string{support.Occurrences}})
	if err != nil {
		t.Fatal(err)
	}
	if ctx := resp.Evaluation.Context; ctx.NumOccurrences() != 6 || ctx.NumInstances() != 1 {
		t.Errorf("counts = %d/%d", ctx.NumOccurrences(), ctx.NumInstances())
	}
	resp, err = eng.Do(&support.Request{
		Pattern:  fig.Pattern,
		Measures: []string{support.Occurrences},
		Options:  &support.EngineOptions{MaxOccurrences: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if capped := resp.Evaluation.Context; capped.NumOccurrences() != 3 {
		t.Errorf("MaxOccurrences not honored: %d", capped.NumOccurrences())
	}
}

func TestFacadeGeneratorsAndIO(t *testing.T) {
	g := support.BarabasiAlbert(60, 2, 3, 7)
	if g.NumVertices() != 60 {
		t.Fatalf("BA vertices = %d", g.NumVertices())
	}
	er := support.ErdosRenyi(40, 0.1, 2, 7)
	geo := support.RandomGeometric(40, 0.2, 2, 7)
	if er.NumVertices() != 40 || geo.NumVertices() != 40 {
		t.Error("generator sizes wrong")
	}

	var buf bytes.Buffer
	if err := support.WriteLG(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := support.ReadLG(&buf, "back")
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Error("LG round trip changed the graph")
	}

	dir := t.TempDir()
	path := dir + "/g.lg"
	if err := support.SaveLGFile(path, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := support.LoadLGFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Equal(g) {
		t.Error("file round trip changed the graph")
	}
}

func TestFacadeMining(t *testing.T) {
	g := support.BarabasiAlbert(60, 2, 2, 11)
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Do(&support.Request{Mine: &support.MineSpec{MinSupport: 3, MaxPatternSize: 3}})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Mining
	if len(res.Patterns) == 0 {
		t.Fatal("expected frequent patterns")
	}
	for _, fp := range res.Patterns {
		if fp.Support < 3 {
			t.Errorf("pattern below threshold: %+v", fp)
		}
		// Cross-check against a direct evaluation through the facade.
		ev, err := support.Evaluate(g, fp.Pattern, support.MNI)
		if err != nil {
			t.Fatal(err)
		}
		direct, _ := ev.Value(support.MNI)
		if math.Abs(direct-fp.Support) > 1e-9 {
			t.Errorf("mined support %v != direct %v", fp.Support, direct)
		}
	}
	if _, err := eng.Do(&support.Request{Mine: &support.MineSpec{}}); err == nil {
		t.Error("zero threshold should error")
	}
}

func TestFacadePaperFigures(t *testing.T) {
	figs := support.PaperFigures()
	if len(figs) != 9 {
		t.Fatalf("expected 9 figures, got %d", len(figs))
	}
	for _, f := range figs {
		if f.Graph == nil || f.Pattern == nil || f.Name == "" {
			t.Errorf("incomplete figure fixture %+v", f)
		}
	}
	p := support.SingleEdgePattern(1, 2)
	if p.Size() != 2 {
		t.Errorf("SingleEdgePattern size = %d", p.Size())
	}
	if _, err := support.NewPattern(support.NewGraph("empty")); err == nil {
		t.Error("empty pattern should be rejected")
	}
}
