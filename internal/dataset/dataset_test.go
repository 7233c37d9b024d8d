package dataset_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestFigureFixturesAreWellFormed(t *testing.T) {
	figures := dataset.AllFigures()
	if len(figures) != 9 {
		t.Fatalf("expected 9 figure fixtures, got %d", len(figures))
	}
	seen := make(map[string]bool)
	for _, f := range figures {
		if seen[f.Name] {
			t.Errorf("duplicate figure name %q", f.Name)
		}
		seen[f.Name] = true
		if err := f.Graph.Validate(); err != nil {
			t.Errorf("%s: graph invalid: %v", f.Name, err)
		}
		if f.Pattern.Size() < 2 {
			t.Errorf("%s: pattern too small", f.Name)
		}
		if !f.Graph.IsConnected() && f.Name != "figure6" {
			// Figure 6 style fixtures may legitimately be disconnected; all
			// currently shipped figures are connected, keep the check strict.
			t.Errorf("%s: data graph unexpectedly disconnected", f.Name)
		}
	}
}

func TestWriteReadLGRoundTrip(t *testing.T) {
	for _, f := range dataset.AllFigures() {
		var buf bytes.Buffer
		if err := dataset.WriteLG(&buf, f.Graph); err != nil {
			t.Fatalf("%s: WriteLG: %v", f.Name, err)
		}
		back, err := dataset.ReadLG(&buf, "roundtrip")
		if err != nil {
			t.Fatalf("%s: ReadLG: %v", f.Name, err)
		}
		if !f.Graph.Equal(back) {
			t.Errorf("%s: round trip changed the graph", f.Name)
		}
		if back.Name() != f.Graph.Name() {
			t.Errorf("%s: name not preserved: %q", f.Name, back.Name())
		}
	}
}

func TestReadLGParsing(t *testing.T) {
	input := `
# a comment
t # demo
v 0 1
v 1 2
e 0 1 7
`
	g, err := dataset.ReadLG(strings.NewReader(input), "fallback")
	if err != nil {
		t.Fatalf("ReadLG: %v", err)
	}
	if g.Name() != "demo" {
		t.Errorf("name = %q, want demo", g.Name())
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Errorf("parsed %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}

	bad := []string{
		"v 0",          // missing label
		"v x 1",        // bad id
		"v 0 y",        // bad label
		"e 0",          // missing endpoint
		"e a 1",        // bad endpoint
		"e 0 b",        // bad endpoint
		"q 1 2",        // unknown record
		"v 0 1\ne 0 5", // edge to unknown vertex
		"v 0 1\nv 0 2", // conflicting relabel
		"v 0 1\ne 0 0", // self loop
	}
	for _, in := range bad {
		if _, err := dataset.ReadLG(strings.NewReader(in), "bad"); err == nil {
			t.Errorf("expected error for input %q", in)
		}
	}
}

func TestLGFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.lg")
	g := gen.ErdosRenyi(20, 0.2, gen.UniformLabels{K: 3}, 5)
	if err := dataset.SaveLGFile(path, g); err != nil {
		t.Fatalf("SaveLGFile: %v", err)
	}
	back, err := dataset.LoadLGFile(path)
	if err != nil {
		t.Fatalf("LoadLGFile: %v", err)
	}
	if !g.Equal(back) {
		t.Error("file round trip changed the graph")
	}
	if _, err := dataset.LoadLGFile(filepath.Join(dir, "missing.lg")); err == nil {
		t.Error("expected error for missing file")
	}
	if err := dataset.SaveLGFile(filepath.Join(dir, "no-such-dir", "x.lg"), g); err == nil {
		t.Error("expected error for unwritable path")
	}
	// The file should be readable as plain text with the expected header.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "t # ") {
		t.Errorf("unexpected file header: %q", string(raw[:10]))
	}
}

func TestFigureExpectationsCoverKeyFigures(t *testing.T) {
	// The central worked examples of the paper must carry explicit expected
	// values so that the measure tests actually pin them down.
	byName := make(map[string]dataset.Figure)
	for _, f := range dataset.AllFigures() {
		byName[f.Name] = f
	}
	f2 := byName["figure2"]
	if f2.ExpectedMNI != 3 || f2.ExpectedMIS != 1 {
		t.Errorf("figure2 expectations wrong: %+v", f2)
	}
	f4 := byName["figure4"]
	if f4.ExpectedMNI != 2 || f4.ExpectedMI != 1 {
		t.Errorf("figure4 expectations wrong: %+v", f4)
	}
	f6 := byName["figure6"]
	if f6.ExpectedMNI != 4 || f6.ExpectedMVC != 2 || f6.ExpectedMIS != 2 {
		t.Errorf("figure6 expectations wrong: %+v", f6)
	}
	f8 := byName["figure8"]
	if f8.ExpectedMIS != 2 {
		t.Errorf("figure8 expectations wrong: %+v", f8)
	}
	if _, ok := byName["figure9"]; !ok {
		t.Error("figure9 fixture missing")
	}
}

func TestGraphVertexOrderIndependence(t *testing.T) {
	// ReadLG must accept vertices and edges in any interleaved order as long
	// as endpoints are declared before use.
	input := "v 5 1\nv 3 1\ne 3 5\nv 7 2\ne 5 7\n"
	g, err := dataset.ReadLG(strings.NewReader(input), "order")
	if err != nil {
		t.Fatalf("ReadLG: %v", err)
	}
	want := []graph.VertexID{3, 5, 7}
	got := g.SortedVertices()
	if len(got) != len(want) {
		t.Fatalf("vertices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("vertices = %v, want %v", got, want)
		}
	}
}
