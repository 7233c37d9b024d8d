package core_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/isomorph"
	"repro/internal/measures"
	"repro/internal/pattern"
)

// TestMaterializedContextListsNoOccurrence evaluates MNI, MI and nuMVC on
// the benchmark's star over BA(240) — 612 instances, 3 672 occurrences —
// and checks that the context still holds its instances as rank tuples
// only: no measure of the three lists an occurrence. As a looser second
// check it bounds what the context and the evaluation allocate together at
// 272 KiB: that reads ≈ 184 KiB (≈ 217 KiB under -race), the 612 instances
// listed as occurrences cost ≈ 74 KiB more, and a context that listed them
// up front while MI hashed its images into a map read ≈ 297 KiB. A later
// Instances() must then be the symmetric search's list, entry for entry.
func TestMaterializedContextListsNoOccurrence(t *testing.T) {
	g := gen.BarabasiAlbert(240, 2, gen.UniformLabels{K: 2}, 1)
	p := pattern.MustNew(graph.NewBuilder("star").Vertex(0, 1).Vertices(2, 1, 2, 3).Star(0, 1, 2, 3).MustBuild())
	snap := g.FreezeSharded(graph.FreezeOptions{Shards: 1})
	evaluate := func() *core.Context {
		ctx, err := core.NewContext(nil, p, core.Options{Parallelism: 1, Snapshot: snap})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := measures.Evaluate(ctx, measures.MNI{}, measures.MI{}, measures.NuMVC{}); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	evaluate()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ctx := evaluate()
	runtime.ReadMemStats(&after)
	if ctx.NumInstances() != 612 {
		t.Fatalf("%d instances, want 612", ctx.NumInstances())
	}
	if core.ListedOccurrences(ctx) {
		t.Fatal("a materialised MNI+MI+nuMVC evaluation listed the star's instances as occurrences")
	}
	const bound = 272 << 10
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes", allocated)
	if allocated > bound {
		t.Errorf("a materialised MNI+MI+nuMVC evaluation of the star allocated %d bytes, want at most %d", allocated, bound)
	}
	want := isomorph.EnumerateSnapshot(snap, p, isomorph.Options{Symmetry: ctx.Symmetry()})
	got := ctx.Instances()
	if !core.ListedOccurrences(ctx) {
		t.Fatal("Instances() left no occurrence list behind")
	}
	if len(got) != len(want) {
		t.Fatalf("%d instances listed, the symmetric search lists %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Images(), want[i].Images()) || !slices.Equal(got[i].Nodes(), want[i].Nodes()) {
			t.Fatalf("instance %d is %v, the symmetric search lists %v", i, got[i], want[i])
		}
	}
}

// TestInstanceHypergraphAllocatesNoVertexIDs bounds what laying the star's
// H_I out on BA(240) — 612 edges of 4 ranks, which is what every
// eval-measures case builds — and kernelising it allocate:
// hypergraph.NewUniform over the context's rank tuples, then Kernel. Both
// write the dense view alone, so the bytes are the incidence lists and the
// reducer's scratch, and no HyperEdge or VertexID per vertex mention: that
// reads 40 776 B a build, against 93 120 B while NewUniform kept a
// []HyperEdge over its own VertexID array and a branch order, and the kernel
// went through the allocating EdgeClasses, New and AddEdge.
func TestInstanceHypergraphAllocatesNoVertexIDs(t *testing.T) {
	g := gen.BarabasiAlbert(240, 2, gen.UniformLabels{K: 2}, 1)
	p := pattern.MustNew(graph.NewBuilder("star").Vertex(0, 1).Vertices(2, 1, 2, 3).Star(0, 1, 2, 3).MustBuild())
	ctx, err := core.NewContext(g, p, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	vertices, k := ctx.OccurrenceHypergraph().Vertices(), p.Size()
	const runs = 10
	ranks := make([][]int32, runs)
	for i := range ranks {
		ranks[i] = slices.Clone(ctx.InstanceRanks())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range ranks {
		hypergraph.NewUniform(vertices, k, r).Kernel()
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("NewUniform and Kernel allocated %d bytes a build", perBuild)
	const bound = 48 << 10
	if perBuild > bound {
		t.Errorf("laying out and kernelising the star's H_I (612 edges of 4) allocated %d bytes, want at most %d", perBuild, bound)
	}
}
