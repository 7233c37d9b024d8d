package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
	"repro/internal/store"
)

// symmetricPatterns returns single-label patterns with non-trivial
// automorphism groups (|Aut| = 6, 8, 6, 24, 2): the inputs on which counting
// instances by orbit differs most from counting occurrences.
func symmetricPatterns() []*pattern.Pattern {
	b := func(name string) *graph.Builder { return graph.NewBuilder(name).Vertices(1, 0, 1, 2, 3) }
	return []*pattern.Pattern{
		trianglePattern(),
		pattern.MustNew(b("c4").Cycle(0, 1, 2, 3).MustBuild()),
		pattern.MustNew(b("star3").Star(0, 1, 2, 3).MustBuild()),
		pattern.MustNew(b("k4").Clique(0, 1, 2, 3).MustBuild()),
		pattern.MustNew(graph.NewBuilder("path3").Vertices(1, 0, 1, 2).Path(0, 1, 2).MustBuild()),
	}
}

// aggregateCase is one (data, pattern) input of the streamed-vs-materialized
// comparisons; snap is set when the data is a snapshot with no mutable graph
// behind it.
type aggregateCase struct {
	name string
	g    *graph.Graph
	p    *pattern.Pattern
	snap *graph.Snapshot
}

// aggregateCases returns every paper figure, every symmetric pattern on a
// one-label generated graph, and one of those over a store-backed snapshot.
func aggregateCases(t *testing.T) []aggregateCase {
	t.Helper()
	var cases []aggregateCase
	for _, fig := range dataset.AllFigures() {
		cases = append(cases, aggregateCase{name: fig.Name, g: fig.Graph, p: fig.Pattern})
	}
	g := gen.BarabasiAlbert(40, 3, gen.UniformLabels{K: 1}, 21)
	for _, p := range symmetricPatterns() {
		cases = append(cases, aggregateCase{name: p.Graph().Name() + "/ba40", g: g, p: p})
	}
	dir := t.TempDir()
	if err := store.Write(g.FreezeSharded(graph.FreezeOptions{Shards: 4}), dir); err != nil {
		t.Fatalf("store.Write: %v", err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	c4 := symmetricPatterns()[1]
	return append(cases, aggregateCase{name: "c4/store", p: c4, snap: st.Snapshot()})
}

// requireAggregatesMatch checks a context's aggregates against values
// recomputed from a materialized context's occurrence list by a plain scan:
// occurrence count, instance count (countInstances' grouping of the list,
// never another orbit count) and per-node distinct images. Both contexts must
// report those counts and sizes.
func requireAggregatesMatch(t *testing.T, tag string, got, mat *core.Context) {
	t.Helper()
	if got.NumOccurrences() != len(mat.Occurrences()) {
		t.Fatalf("%s: %d occurrences, materialized list has %d", tag, got.NumOccurrences(), len(mat.Occurrences()))
	}
	instances := countInstances(mat.Pattern(), mat.Occurrences())
	if got.NumInstances() != instances {
		t.Fatalf("%s: %d instances, grouping the materialized list gives %d", tag, got.NumInstances(), instances)
	}
	if mat.NumInstances() != instances {
		t.Fatalf("%s: materialized context reports %d instances, grouping its own list gives %d", tag, mat.NumInstances(), instances)
	}
	nodes := mat.Pattern().Nodes()
	want := make([]int, len(nodes))
	for i, n := range nodes {
		images := make(map[graph.VertexID]bool)
		for _, o := range mat.Occurrences() {
			images[o.MustImage(n)] = true
		}
		want[i] = len(images)
	}
	if sizes := got.MNIDomainSizes(); !reflect.DeepEqual(sizes, want) {
		t.Fatalf("%s: domain sizes %v, scan of the occurrence list gives %v", tag, sizes, want)
	}
	if sizes := mat.MNIDomainSizes(); !reflect.DeepEqual(sizes, want) {
		t.Fatalf("%s: materialized domain sizes %v, scan of its own list gives %v", tag, sizes, want)
	}
}

// TestStreamingContextMatchesMaterialized checks that streaming and
// materialized contexts report the aggregates (occurrence count, instance
// count, MNI domain sizes) a scan of the materialized list gives, at every
// parallelism setting, where both count instances by orbit.
func TestStreamingContextMatchesMaterialized(t *testing.T) {
	for _, tc := range aggregateCases(t) {
		mat := core.MustNewContext(tc.g, tc.p, core.Options{Snapshot: tc.snap})
		for _, par := range []int{0, 1, 4} {
			tag := fmt.Sprintf("%s par=%d", tc.name, par)
			st := core.MustNewContext(tc.g, tc.p, core.Options{Snapshot: tc.snap, Streaming: true, Parallelism: par})
			if st.Materialized() {
				t.Fatalf("%s: streaming context misreports its mode", tc.name)
			}
			requireAggregatesMatch(t, tag, st, mat)
			mp := core.MustNewContext(tc.g, tc.p, core.Options{Snapshot: tc.snap, Parallelism: par})
			requireAggregatesMatch(t, tag+" materialized", mp, mat)
		}
	}
}

// TestStreamingContextOmitsMaterializedState checks that streaming mode
// really does not materialize: the occurrence and instance lists and the
// instance hypergraph must be absent.
func TestStreamingContextOmitsMaterializedState(t *testing.T) {
	fig := dataset.Figure2()
	st := core.MustNewContext(fig.Graph, fig.Pattern, core.Options{Streaming: true})
	if st.Occurrences() != nil || st.Instances() != nil {
		t.Error("streaming context materialized the occurrence or instance list")
	}
	if st.OccurrenceHypergraph() != nil {
		t.Error("streaming context materialized a hypergraph")
	}
}

// TestOccurrenceHypergraphEdgeIsInstance pins the identities a materialized
// context has, at every parallelism: hyperedge EdgeID(i) is the vertex set of
// Instances()[i], one edge per instance (the instance hypergraph H_I);
// Occurrences() is isomorph.EnumerateSnapshot's full list, in its order and
// with its keys; and Instances() is that list with every occurrence left out
// whose instance an earlier one already has — each instance's smallest copy,
// in the full list's order, which is what keeps every vertex set's first edge
// where the occurrence hypergraph had it.
func TestOccurrenceHypergraphEdgeIsInstance(t *testing.T) {
	for _, tc := range aggregateCases(t) {
		snap := tc.snap
		if snap == nil {
			snap = tc.g.Freeze()
		}
		full := isomorph.EnumerateSnapshot(snap, tc.p, isomorph.Options{Parallelism: 1})
		seen := make(map[string]bool)
		var firsts []string
		for _, o := range full {
			if key := instanceKey(tc.p, o); !seen[key] {
				seen[key] = true
				firsts = append(firsts, o.Key())
			}
		}
		for _, par := range []int{1, 4} {
			ctx := core.MustNewContext(tc.g, tc.p, core.Options{Snapshot: tc.snap, Parallelism: par})
			h, ins := ctx.OccurrenceHypergraph(), ctx.Instances()
			if h.NumEdges() != ctx.NumInstances() || len(ins) != ctx.NumInstances() || len(ins) != len(firsts) {
				t.Fatalf("%s par=%d: %d hyperedges and %d listed instances for %d instances, the full list has %d", tc.name, par, h.NumEdges(), len(ins), ctx.NumInstances(), len(firsts))
			}
			for i, in := range ins {
				e, ok := h.Edge(hypergraph.EdgeID(i))
				if !ok || !reflect.DeepEqual(e.Vertices, in.VertexSet()) {
					t.Fatalf("%s par=%d: hyperedge %d is %v, instance %d has vertex set %v", tc.name, par, i, e.Vertices, i, in.VertexSet())
				}
				if in.Key() != firsts[i] {
					t.Fatalf("%s par=%d: instance %d is listed as %s, its first occurrence in the full list is %s", tc.name, par, i, in.Key(), firsts[i])
				}
			}
			requireFullList(t, fmt.Sprintf("%s par=%d", tc.name, par), ctx, full)
		}
	}
}

// requireFullList checks that a materialized context's occurrence list is the
// given full list — isomorph.EnumerateSnapshot's — in its order, key by key.
func requireFullList(t *testing.T, tag string, ctx *core.Context, full []*isomorph.Occurrence) {
	t.Helper()
	occs := ctx.Occurrences()
	if len(occs) != len(full) || len(occs) != ctx.NumOccurrences() {
		t.Fatalf("%s: %d listed occurrences for %d occurrences, the full search lists %d", tag, len(occs), ctx.NumOccurrences(), len(full))
	}
	for i, o := range occs {
		if o.Key() != full[i].Key() {
			t.Fatalf("%s: occurrence %d is %s, the full search lists %s", tag, i, o.Key(), full[i].Key())
		}
	}
}

// TestContextIdenticalAcrossShards checks the shards knob end to end through
// context construction: occurrence order, instance count and the streamed
// aggregates must be identical for every shard count and parallelism, on a
// labeled triangle and on every symmetric pattern over a one-label graph.
func TestContextIdenticalAcrossShards(t *testing.T) {
	cases := []aggregateCase{{name: "tri/ba300", g: gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 11), p: trianglePattern()}}
	one := gen.BarabasiAlbert(40, 3, gen.UniformLabels{K: 1}, 21)
	for _, p := range symmetricPatterns() {
		cases = append(cases, aggregateCase{name: p.Graph().Name() + "/ba40", g: one, p: p})
	}
	for _, tc := range cases {
		base := core.MustNewContext(tc.g, tc.p, core.Options{Parallelism: 1})
		requireFullList(t, tc.name, base, isomorph.EnumerateSnapshot(tc.g.Freeze(), tc.p, isomorph.Options{Parallelism: 1}))
		for _, shards := range []int{1, 2, 7} {
			for _, par := range []int{1, 4} {
				tag := fmt.Sprintf("%s shards=%d par=%d", tc.name, shards, par)
				ctx := core.MustNewContext(tc.g, tc.p, core.Options{Parallelism: par, Shards: shards})
				requireAggregatesMatch(t, tag, ctx, base)
				for i, o := range ctx.Occurrences() {
					if o.Key() != base.Occurrences()[i].Key() {
						t.Fatalf("%s: occurrence %d is %s, unsharded has %s", tag, i, o.Key(), base.Occurrences()[i].Key())
					}
				}
				st := core.MustNewContext(tc.g, tc.p, core.Options{Parallelism: par, Shards: shards, Streaming: true})
				requireAggregatesMatch(t, tag+" streaming", st, base)
			}
		}
	}
}

// TestMaterializedContextIdenticalAcrossParallelism checks the parallel
// engine end to end through context construction: occurrence order and the
// counts must be identical for every parallelism value.
func TestMaterializedContextIdenticalAcrossParallelism(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 11)
	tri := pattern.MustNew(graph.NewBuilder("tri").Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild())

	base := core.MustNewContext(g, tri, core.Options{Parallelism: 1})
	for _, par := range []int{0, 2, 8} {
		ctx := core.MustNewContext(g, tri, core.Options{Parallelism: par})
		if ctx.NumOccurrences() != base.NumOccurrences() || ctx.NumInstances() != base.NumInstances() {
			t.Fatalf("par=%d: %d/%d occurrences/instances, want %d/%d",
				par, ctx.NumOccurrences(), ctx.NumInstances(), base.NumOccurrences(), base.NumInstances())
		}
		for i, o := range ctx.Occurrences() {
			if o.Key() != base.Occurrences()[i].Key() {
				t.Fatalf("par=%d: occurrence %d is %s, sequential has %s", par, i, o.Key(), base.Occurrences()[i].Key())
			}
		}
	}
}

// TestStreamingAllocationDoesNotScale checks that a streaming context pays
// for its domain tables and for nothing per occurrence: over two graphs on
// the same vertices, one with more than four times the occurrences of the
// other, the build allocates the same bytes up to what the larger tables
// cost (generously, 128 B per (pattern node, data vertex) entry of every
// worker's table — a map entry plus the buckets it outgrew).
func TestStreamingAllocationDoesNotScale(t *testing.T) {
	const slack = 64 << 10 // bytes; 4N-N occurrences at 1 B each would exceed it
	star := pattern.MustNew(graph.NewBuilder("star").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Vertex(3, 2).Star(0, 1, 2, 3).MustBuild())
	sparse := gen.BarabasiAlbert(2000, 2, gen.UniformLabels{K: 2}, 5).Freeze()
	dense := gen.BarabasiAlbert(2000, 3, gen.UniformLabels{K: 2}, 5).Freeze()
	for _, par := range []int{1, 4} {
		build := func(snap *graph.Snapshot) (ctx *core.Context, bytes uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ctx = core.MustNewContext(nil, star, core.Options{Streaming: true, Parallelism: par, Snapshot: snap})
			runtime.ReadMemStats(&after)
			return ctx, after.TotalAlloc - before.TotalAlloc
		}
		few, small := build(sparse)
		many, big := build(dense)
		n, m := few.NumOccurrences(), many.NumOccurrences()
		if n < 20000 || m < 4*n {
			t.Fatalf("workload has %d and %d occurrences; want N >= 20000 and >= 4N", n, m)
		}
		tables := 0
		for _, size := range many.MNIDomainSizes() {
			tables += 128 * par * size
		}
		if diff := int64(big) - int64(small); diff > int64(slack+tables) {
			t.Errorf("Parallelism=%d: %d occurrences allocated %d B, %d occurrences %d B (tables allowed %d B): %.1f B per extra occurrence",
				par, n, small, m, big, tables, float64(diff)/float64(m-n))
		}
	}
}
