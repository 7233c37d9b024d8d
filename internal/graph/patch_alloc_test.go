package graph_test

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestRefreezeCopiesBlocksNotShards holds what a four-edge refreeze of a
// BA(2^16, 2) graph frozen into 16 shards allocates. Each batch adds four
// edges inside a 4 096-ID window that straddles two shards, or removes the
// previous batch's four, so a refreeze patches one or two shards. Each
// patched shard gets a fresh row-pointer array (16 KB) and block table
// (2 KB) and new columns for the blocks its stale rows lie in (≈ 1 KB each):
// ≈ 51 KB a refreeze in all. The bound fails a patch that copies each dirty shard's
// whole column array (≈ 184 KB a refreeze).
func TestRefreezeCopiesBlocksNotShards(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	const n, window, runs = 1 << 16, 4096, 32
	g := gen.BarabasiAlbert(n, 2, gen.UniformLabels{K: 4}, 1)
	opts := graph.FreezeOptions{Shards: 16}
	if s := g.FreezeSharded(opts); s.ShardSize() != window {
		t.Fatalf("shard size %d, want %d", s.ShardSize(), window)
	}
	rng := gen.NewRNG(3)
	var batch []graph.Edge
	var total uint64
	for r := 0; r < runs; r++ {
		if r%2 == 0 {
			base := window/2 + r/2%15*window
			batch = batch[:0]
			for len(batch) < 4 {
				u, v := graph.VertexID(base+rng.Intn(window)), graph.VertexID(base+rng.Intn(window))
				if u != v && !g.HasEdge(u, v) {
					g.MustAddEdge(u, v)
					batch = append(batch, graph.Edge{U: u, V: v})
				}
			}
		} else {
			for _, e := range batch {
				g.MustRemoveEdge(e.U, e.V)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g.FreezeSharded(opts)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	const bound = 80 << 10
	if per := total / runs; per > bound {
		t.Fatalf("a four-edge refreeze allocated %d bytes, want at most %d", per, bound)
	}
}
