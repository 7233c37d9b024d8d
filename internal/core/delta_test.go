package core_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/pattern"
)

func trianglePattern() *pattern.Pattern {
	return pattern.MustNew(graph.NewBuilder("tri").Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild())
}

// requireDeltaMatchesScratch asserts that the delta-maintained aggregates
// equal those of the same graph built from scratch. The scratch side is a
// materialized context, so the instance count is checked against the grouped
// instance list rather than against another division by |Aut|.
func requireDeltaMatchesScratch(t *testing.T, d *core.DeltaContext, g *graph.Graph, p *pattern.Pattern, tag string) {
	t.Helper()
	fresh := core.MustNewContext(g.Clone(), p, core.Options{Parallelism: 1})
	requireAggregatesMatch(t, tag, d.Context(), fresh)
	got, err := measures.MNI{}.Compute(d.Context())
	if err != nil {
		t.Fatalf("%s: MNI on delta context: %v", tag, err)
	}
	want, err := measures.MNI{}.Compute(fresh)
	if err != nil {
		t.Fatalf("%s: MNI on scratch context: %v", tag, err)
	}
	if got != want {
		t.Fatalf("%s: MNI on delta context = %+v, scratch = %+v", tag, got, want)
	}
	requireDomainsMatchCold(t, d, g, tag)
}

// requireDomainsMatchCold holds every maintained MNI domain of d, as a set of
// vertices, to the domain a cold pass over g's current snapshot finds
// (core.NewDomainContext): equal sizes are not enough, a row must hold the
// very vertices.
func requireDomainsMatchCold(t *testing.T, d *core.DeltaContext, g *graph.Graph, tag string) {
	t.Helper()
	snap := g.Freeze()
	_, cold := core.NewDomainContext(snap, d.Pattern(), 1, nil)
	kept := core.DomainSets(d)
	for i, n := range d.Pattern().Nodes() {
		if want := core.MaskIDs(snap, cold[i]); !slices.Equal(kept[i], want) {
			t.Fatalf("%s: node %d's maintained domain is %v, a cold pass finds %v", tag, n, kept[i], want)
		}
	}
}

// deltaCase is one workload of the delta insert/removal tests: a generator of
// fresh copies of the data graph (the tests mutate it), a pattern, and the
// {shards, parallelism} settings to run it at.
type deltaCase struct {
	name     string
	graph    func() *graph.Graph
	p        *pattern.Pattern
	settings [][2]int
}

// deltaCases returns the labeled-triangle workload on the given
// preferential-attachment graph across the whole shards x parallelism matrix,
// plus every symmetric pattern on a one-label random geometric graph — whose
// 3-hop mutation balls stay well under half the graph, so 4-node patterns
// still refresh on the delta path — at the matrix's two corners (what the
// symmetric patterns add is the instance count, not the scheduling).
func deltaCases(n int, seed uint64) []deltaCase {
	cases := []deltaCase{{
		name:     "tri/ba",
		graph:    func() *graph.Graph { return gen.BarabasiAlbert(n, 3, gen.UniformLabels{K: 2}, seed) },
		p:        trianglePattern(),
		settings: [][2]int{{1, 1}, {1, 4}, {2, 1}, {2, 4}, {7, 1}, {7, 4}},
	}}
	for _, p := range symmetricPatterns() {
		cases = append(cases, deltaCase{
			name:     p.Graph().Name() + "/geo",
			graph:    func() *graph.Graph { return gen.RandomGeometric(300, 0.05, gen.UniformLabels{K: 1}, seed) },
			p:        p,
			settings: [][2]int{{1, 1}, {7, 4}},
		})
	}
	return cases
}

// TestDeltaContextMatchesFromScratch is the tentpole correctness bar:
// delta-maintained support aggregates must equal a from-scratch context
// after every mutation batch, across shard counts and parallelism
// (run under -race in CI).
func TestDeltaContextMatchesFromScratch(t *testing.T) {
	for _, tc := range deltaCases(260, 13) {
		p := tc.p
		for _, set := range tc.settings {
			shards, par := set[0], set[1]
			g := tc.graph()
			d, err := core.NewDeltaContext(g, p, core.Options{Shards: shards, Parallelism: par})
			if err != nil {
				t.Fatalf("%s shards=%d par=%d: NewDeltaContext: %v", tc.name, shards, par, err)
			}
			defer d.Close()
			requireDeltaMatchesScratch(t, d, g, p, tc.name+" initial")

			// Interleaved batches: edge inserts between existing vertices,
			// vertex appends wired into the graph, and a mid-batch mix.
			ids := g.SortedVertices()
			next := graph.VertexID(10_000)
			for step := 0; step < 5; step++ {
				u, v := ids[step*13], ids[step*29+40]
				if u != v && !g.HasEdge(u, v) {
					g.MustAddEdge(u, v)
				}
				g.MustAddVertex(next, 1)
				g.MustAddEdge(next, u)
				if step%2 == 1 { // close a triangle through the new vertex
					if w := ids[step*7+3]; w != u && g.HasEdge(u, w) && !g.HasEdge(next, w) {
						g.MustAddEdge(next, w)
					}
				}
				next++
				if err := d.Refresh(); err != nil {
					t.Fatalf("%s shards=%d par=%d step=%d: Refresh: %v", tc.name, shards, par, step, err)
				}
				requireDeltaMatchesScratch(t, d, g, p, tc.name+" after batch")
			}
			if st := d.Stats(); st.DeltaRefreshes == 0 {
				t.Fatalf("%s shards=%d par=%d: no refresh took the delta path (stats %+v)", tc.name, shards, par, st)
			}
		}
	}
}

// TestDeltaContextZeroMatchingMutations checks batches that cannot touch any
// occurrence of the pattern: label-disjoint vertices and edges must leave the
// aggregates bit-for-bit unchanged while still being processed as deltas.
func TestDeltaContextZeroMatchingMutations(t *testing.T) {
	p := trianglePattern()
	g := gen.BarabasiAlbert(200, 3, gen.UniformLabels{K: 2}, 5)
	d, err := core.NewDeltaContext(g, p, core.Options{})
	if err != nil {
		t.Fatalf("NewDeltaContext: %v", err)
	}
	defer d.Close()
	occ, inst, doms := d.NumOccurrences(), d.NumInstances(), d.MNIDomainSizes()
	if occ == 0 {
		t.Fatal("workload has no triangles; test needs a non-trivial baseline")
	}

	// Vertices with a label the pattern does not use, plus an edge between
	// them: the delta passes run but find no matching occurrence.
	g.MustAddVertex(20_000, 9)
	g.MustAddVertex(20_001, 9)
	g.MustAddEdge(20_000, 20_001)
	if err := d.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if d.NumOccurrences() != occ || d.NumInstances() != inst || !reflect.DeepEqual(d.MNIDomainSizes(), doms) {
		t.Fatalf("zero-matching batch changed aggregates: %d/%d/%v, want %d/%d/%v",
			d.NumOccurrences(), d.NumInstances(), d.MNIDomainSizes(), occ, inst, doms)
	}
	if st := d.Stats(); st.DeltaRefreshes != 1 || st.FullRebuilds != 0 {
		t.Fatalf("zero-matching batch should take the delta path, stats %+v", st)
	}
	requireDeltaMatchesScratch(t, d, g, p, "zero-matching")

	// A refresh with nothing pending is a no-op.
	if err := d.Refresh(); err != nil {
		t.Fatalf("no-op Refresh: %v", err)
	}
	if st := d.Stats(); st.Refreshes != 2 || st.DeltaRefreshes != 1 {
		t.Fatalf("no-op refresh miscounted: %+v", st)
	}
}

// TestDeltaContextSaturationFallback drives a mutation storm that dirties
// every shard: the ball covers the whole graph, the context must fall back
// to full re-enumeration, and the answers must still match scratch.
func TestDeltaContextSaturationFallback(t *testing.T) {
	p := trianglePattern()
	g := gen.BarabasiAlbert(60, 2, gen.UniformLabels{K: 2}, 3)
	d, err := core.NewDeltaContext(g, p, core.Options{Shards: 4})
	if err != nil {
		t.Fatalf("NewDeltaContext: %v", err)
	}
	defer d.Close()

	// Storm: wire a hub into every vertex, dirtying every shard at once.
	hub := graph.VertexID(30_000)
	g.MustAddVertex(hub, 1)
	for _, v := range g.SortedVertices() {
		if v != hub && !g.HasEdge(hub, v) {
			g.MustAddEdge(hub, v)
		}
	}
	if err := d.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if st := d.Stats(); st.FullRebuilds != 1 || st.DeltaRefreshes != 0 {
		t.Fatalf("storm should fall back to a full rebuild, stats %+v", st)
	}
	requireDeltaMatchesScratch(t, d, g, p, "after storm")

	// The context keeps working incrementally after a fallback.
	g.MustAddVertex(30_001, 1)
	g.MustAddEdge(30_001, hub)
	if err := d.Refresh(); err != nil {
		t.Fatalf("Refresh after storm: %v", err)
	}
	requireDeltaMatchesScratch(t, d, g, p, "delta after storm")
}

// TestDeltaContextRejectsNilGraph pins the constructor contract: there is no
// delta without a graph to subscribe to.
func TestDeltaContextRejectsNilGraph(t *testing.T) {
	if _, err := core.NewDeltaContext(nil, trianglePattern(), core.Options{}); err == nil {
		t.Fatal("NewDeltaContext accepted a nil graph")
	}
}
