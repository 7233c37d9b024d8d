package isomorph_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
	"repro/internal/store"
)

// referenceOccurrences is the independent oracle the planned, kernelised
// search is pinned against: plain backtracking over the mutable map-backed
// Graph — no snapshot, no search order, no kernels, no code shared with
// searchState. Pattern nodes are assigned in sorted node order and every data
// vertex is tried in ascending ID order, so the occurrences — each the images
// of p.Nodes(), in that order — come out in the canonical occurrence order
// EnumerateSnapshot promises and sequences compare element by element.
func referenceOccurrences(g *graph.Graph, p *pattern.Pattern) [][]graph.VertexID {
	nodes := p.Nodes()
	vertices := g.SortedVertices()
	images := make([]graph.VertexID, len(nodes))
	used := make(map[graph.VertexID]bool)
	var occs [][]graph.VertexID
	var assign func(i int)
	assign = func(i int) {
		if i == len(nodes) {
			occs = append(occs, append([]graph.VertexID(nil), images...))
			return
		}
	candidates:
		for _, v := range vertices {
			if used[v] || g.MustLabelOf(v) != p.LabelOf(nodes[i]) {
				continue
			}
			for j := 0; j < i; j++ {
				if p.Graph().HasEdge(nodes[i], nodes[j]) && !g.HasEdge(v, images[j]) {
					continue candidates
				}
			}
			images[i], used[v] = v, true
			assign(i + 1)
			used[v] = false
		}
	}
	assign(0)
	return occs
}

// referenceOccurrenceKeys renders the reference matcher's occurrences as the
// keys occurrenceKeys gives enumerated ones.
func referenceOccurrenceKeys(g *graph.Graph, p *pattern.Pattern) []string {
	nodes := p.Nodes()
	occs := referenceOccurrences(g, p)
	keys := make([]string, len(occs))
	for i, images := range occs {
		for j, n := range nodes {
			keys[i] += fmt.Sprintf("%d>%d;", n, images[j])
		}
	}
	return keys
}

// assertKeysEqual fails the test at the first position two occurrence-key
// sequences differ.
func assertKeysEqual(t *testing.T, where string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d occurrences, reference matcher found %d", where, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: occurrence %d = %s, reference matcher has %s", where, i, got[i], want[i])
		}
	}
}

// TestPlannedMatchesNaive pins the search against the naive reference
// matcher: for every shard count in {1, 2, 7} and parallelism in {1, 4},
// EnumerateSnapshot returns the byte-identical occurrence sequence on
// workloads whose label distributions push the planner both ways (uniform
// labels keep the naive order, skewed labels re-root the search) and whose
// patterns reach both kernels (the star's single-anchor runs, the triangle's
// galloping intersection). Run under -race this also exercises the kernels'
// lazily built shared state.
func TestPlannedMatchesNaive(t *testing.T) {
	workloads := []struct {
		name string
		g    *graph.Graph
		p    *pattern.Pattern
	}{
		{"ba-star", gen.BarabasiAlbert(400, 3, gen.UniformLabels{K: 2}, 7), starPattern()},
		{"ba-zipf-triangle", gen.BarabasiAlbert(400, 3, gen.ZipfLabels{K: 4, Exponent: 1.5}, 8), trianglePattern(1)},
		{"er-star", gen.ErdosRenyi(300, 0.02, gen.UniformLabels{K: 3}, 9), starPattern()},
	}
	for _, wl := range workloads {
		want := referenceOccurrenceKeys(wl.g, wl.p)
		if len(want) == 0 {
			t.Fatalf("%s: no occurrences; workload is vacuous", wl.name)
		}
		for _, shards := range []int{1, 2, 7} {
			for _, par := range []int{1, 4} {
				got := occurrenceKeys(isomorph.EnumerateSnapshot(sharded(wl.g, shards), wl.p, isomorph.Options{Parallelism: par}))
				assertKeysEqual(t, fmt.Sprintf("%s shards=%d par=%d", wl.name, shards, par), got, want)
			}
		}
	}
}

// TestPlannedMatchesNaiveStoreSnapshot repeats the identity over an
// mmap-backed store snapshot: the kernels read neighbor runs straight out of
// mapped segment bytes, so the identity must survive the out-of-core path
// (including lazily built adjacency bitsets over mapped CSR rows).
func TestPlannedMatchesNaiveStoreSnapshot(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 11)
	p := starPattern()
	dir := t.TempDir()
	if err := store.Write(sharded(g, 4), dir); err != nil {
		t.Fatalf("writing store: %v", err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	defer st.Close()
	snap := st.Snapshot()
	want := referenceOccurrenceKeys(g, p)
	if len(want) == 0 {
		t.Fatal("no occurrences; workload is vacuous")
	}
	for _, par := range []int{1, 4} {
		got := occurrenceKeys(isomorph.EnumerateSnapshot(snap, p, isomorph.Options{Parallelism: par}))
		assertKeysEqual(t, fmt.Sprintf("store par=%d", par), got, want)
	}
}

// TestExplainDeterministic pins plan stability: the planner consults only
// immutable snapshot statistics and the pattern's own symmetry, so repeated
// Explain calls for the same (snapshot, pattern, options) must return the
// identical plan — for the full search plain Options explain, which says
// nothing of symmetry, and for the search under the star's symmetry, which is
// the same order with the group's order, the orbit count and the leaves' lower
// bounds added.
func TestExplainDeterministic(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 3}, 13)
	p := starPattern()
	snap := g.Freeze()
	full := isomorph.Explain(snap, p, isomorph.Options{}).String()
	if strings.Contains(full, "symmetry") || strings.Contains(full, "above") {
		t.Fatalf("plain Options explain a symmetry-broken plan:\n%s", full)
	}
	symmetric := isomorph.Explain(snap, p, isomorph.Options{Symmetry: isomorph.NewSymmetry(p)}).String()
	if !strings.Contains(symmetric, "symmetry: |Aut(P)|=6, node orbits=2") || strings.Count(symmetric, "image above depths") != 2 {
		t.Fatalf("star under its symmetry: want the group's order, the orbit count and a bound on two leaf depths:\n%s", symmetric)
	}
	for i := 0; i < 5; i++ {
		if got := isomorph.Explain(snap, p, isomorph.Options{}).String(); got != full {
			t.Fatalf("Explain call %d differs:\n%s\nwant:\n%s", i, got, full)
		}
		if got := isomorph.Explain(snap, p, isomorph.Options{Symmetry: isomorph.NewSymmetry(p)}).String(); got != symmetric {
			t.Fatalf("Explain call %d under symmetry differs:\n%s\nwant:\n%s", i, got, symmetric)
		}
	}
}

// TestExplainPrefersRareLabelRoot checks the planner's reason for existing:
// on a graph where one label is much rarer than the others, the search is
// rooted at a pattern node carrying the rare label rather than at the naive
// highest-degree node.
func TestExplainPrefersRareLabelRoot(t *testing.T) {
	// 200 label-1 vertices, 5 label-2 vertices; a star centered on label 1
	// with one label-2 leaf should root at the rare leaf.
	b := graph.NewBuilder("skewed")
	for i := 0; i < 200; i++ {
		b.Vertex(graph.VertexID(i), 1)
	}
	for i := 200; i < 205; i++ {
		b.Vertex(graph.VertexID(i), 2)
	}
	for i := 1; i < 200; i++ {
		b.Edge(0, graph.VertexID(i))
	}
	b.Edge(0, 200)
	g := b.MustBuild()
	p := pattern.MustNew(graph.NewBuilder("probe").
		Vertex(0, 1).Vertex(1, 1).Vertex(2, 2).
		Star(0, 1, 2).
		MustBuild())
	ex := isomorph.Explain(g.Freeze(), p, isomorph.Options{})
	if !ex.Planned {
		t.Fatalf("planner fell back to the naive order:\n%s", ex)
	}
	if got := ex.Steps[0].Label; got != 2 {
		t.Fatalf("root label = %d, want the rare label 2:\n%s", got, ex)
	}
}
