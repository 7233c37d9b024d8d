package graph

import (
	"reflect"
	"testing"
)

func TestRemoveEdgeBasics(t *testing.T) {
	g := New("rm")
	g.MustAddVertex(1, 10)
	g.MustAddVertex(2, 20)
	g.MustAddVertex(3, 30)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)

	if err := g.RemoveEdge(2, 1); err != nil { // endpoint order is normalized
		t.Fatalf("RemoveEdge: %v", err)
	}
	if g.HasEdge(1, 2) {
		t.Fatal("edge {1,2} still present after removal")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if got := g.Neighbors(2); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Neighbors(2) = %v, want [3]", got)
	}
	if err := g.RemoveEdge(1, 2); err == nil {
		t.Fatal("removing an absent edge did not error")
	}
	if err := g.RemoveEdge(1, 9); err == nil {
		t.Fatal("removing an edge with an unknown endpoint did not error")
	}
}

func TestRemoveVertexCascades(t *testing.T) {
	g := New("rm")
	for v := 1; v <= 4; v++ {
		g.MustAddVertex(VertexID(v), Label(v*10))
	}
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(2, 4)
	g.MustAddEdge(3, 4)

	f := g.Subscribe()
	defer f.Close()
	if err := g.RemoveVertex(2); err != nil {
		t.Fatalf("RemoveVertex: %v", err)
	}
	if g.HasVertex(2) || g.NumVertices() != 3 {
		t.Fatalf("vertex 2 still present; |V| = %d", g.NumVertices())
	}
	if g.NumEdges() != 1 || !g.HasEdge(3, 4) {
		t.Fatalf("cascade left %d edges, want only {3,4}", g.NumEdges())
	}
	if got := g.VerticesWithLabel(20); len(got) != 0 {
		t.Fatalf("label 20 still lists %v", got)
	}
	want := []Mutation{
		{Kind: MutEdgeRemoved, U: 1, V: 2},
		{Kind: MutEdgeRemoved, U: 2, V: 3},
		{Kind: MutEdgeRemoved, U: 2, V: 4},
		{Kind: MutVertexRemoved, U: 2, Label: 20},
	}
	got := f.Drain()
	if len(got) != len(want) {
		t.Fatalf("feed recorded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("feed[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := g.RemoveVertex(2); err == nil {
		t.Fatal("removing an unknown vertex did not error")
	}
}

// TestNoopRemovalsAreInvisible is the satellite check: a failed removal must
// neither dirty any cached snapshot shard nor reach subscribed feeds.
func TestNoopRemovalsAreInvisible(t *testing.T) {
	g := buildDenseGraph(64)
	opts := FreezeOptions{ShardSize: 16}
	s1 := g.FreezeSharded(opts)
	f := g.Subscribe()
	defer f.Close()

	if err := g.RemoveEdge(0, 63); err == nil {
		t.Fatal("expected error removing absent edge")
	}
	if err := g.RemoveVertex(999); err == nil {
		t.Fatal("expected error removing unknown vertex")
	}
	if f.Pending() != 0 {
		t.Fatalf("no-op removals reached the feed: %v", f.Drain())
	}
	before := g.shardBuilds.Load()
	if s2 := g.FreezeSharded(opts); s2 != s1 {
		t.Fatal("no-op removals dirtied the cached snapshot")
	}
	if delta := g.shardBuilds.Load() - before; delta != 0 {
		t.Fatalf("no-op removals caused %d shard rebuilds", delta)
	}
}

// TestIncrementalRefreezeEdgeRemoval mirrors the AddEdge incremental-refreeze
// test: one RemoveEdge dirties exactly the two endpoint shards and the
// refreeze reuses every clean shard by reference.
func TestIncrementalRefreezeEdgeRemoval(t *testing.T) {
	g := buildDenseGraph(64)
	opts := FreezeOptions{ShardSize: 16}
	s1 := g.FreezeSharded(opts)

	before := g.shardBuilds.Load()
	g.MustRemoveEdge(17, 18) // both endpoints in shard 1
	s2 := g.FreezeSharded(opts)
	if delta := g.shardBuilds.Load() - before; delta != 1 {
		t.Fatalf("refreeze rebuilt %d shards, want 1", delta)
	}
	for _, k := range []int{0, 2, 3} {
		if !sameIDBacking(s1.shards[k].ids, s2.shards[k].ids) ||
			!sameCols(s1.shards[k], s2.shards[k]) {
			t.Errorf("clean shard %d was copied instead of reused by reference", k)
		}
	}
	assertSnapshotMatchesScratch(t, g, s2)
	if !s1.HasEdge(17, 18) {
		t.Error("pre-removal snapshot lost the removed edge")
	}
}

// TestIncrementalRefreezeVertexRemoval covers both removal positions: the
// remove-at-max-ID fast path (no shift, clean prefix reused by reference) and
// a mid-range removal (shift forces the clean-shard column remap).
func TestIncrementalRefreezeVertexRemoval(t *testing.T) {
	t.Run("tail", func(t *testing.T) {
		g := buildDenseGraph(64)
		opts := FreezeOptions{ShardSize: 16}
		s1 := g.FreezeSharded(opts)
		// Vertex 63's edges reach only shard 3, so the cascade stays there.
		g.MustRemoveVertex(63)
		s2 := g.FreezeSharded(opts)
		for _, k := range []int{0, 1} {
			if !sameIDBacking(s1.shards[k].ids, s2.shards[k].ids) ||
				!sameCols(s1.shards[k], s2.shards[k]) {
				t.Errorf("clean shard %d was copied instead of reused by reference", k)
			}
		}
		assertSnapshotMatchesScratch(t, g, s2)
	})
	t.Run("mid", func(t *testing.T) {
		g := buildDenseGraph(64)
		opts := FreezeOptions{ShardSize: 16}
		s1 := g.FreezeSharded(opts)
		g.MustRemoveVertex(20) // shard 1; survivors after index 20 all shift
		s2 := g.FreezeSharded(opts)
		if s2.NumVertices() != 63 {
			t.Fatalf("|V| = %d, want 63", s2.NumVertices())
		}
		if _, ok := s2.IndexOf(20); ok {
			t.Fatal("removed vertex still indexed")
		}
		assertSnapshotMatchesScratch(t, g, s2)
		if s1.NumVertices() != 64 {
			t.Error("pre-removal snapshot mutated")
		}
	})
}

// TestRemovalLabelIndexCarry checks that a removal that takes a shard's (or
// the snapshot's) last holder of a label with it leaves the label in no
// shard's partition of the refrozen snapshot.
func TestRemovalLabelIndexCarry(t *testing.T) {
	t.Run("rebuilt-shard-loses-label", func(t *testing.T) {
		g := New("labels")
		for v := 0; v < 18; v++ {
			g.MustAddVertex(VertexID(v), Label(v%3+1))
		}
		g.MustAddVertex(18, 9) // sole holder of label 9, last dense index
		for v := 0; v < 18; v++ {
			g.MustAddEdge(VertexID(v), 18)
		}
		opts := FreezeOptions{ShardSize: 16}
		s1 := g.FreezeSharded(opts)
		if got := labelIndexes(s1, 9); len(got) != 1 {
			t.Fatalf("label 9 index %v, want one entry", got)
		}
		g.MustRemoveVertex(18) // last position: no shift
		s2 := g.FreezeSharded(opts)
		if got := labelIndexes(s2, 9); len(got) != 0 {
			t.Fatalf("label 9 survived its last holder's removal: %v", got)
		}
		assertSnapshotMatchesScratch(t, g, s2)
	})
	t.Run("dropped-tail-shard", func(t *testing.T) {
		g := New("labels")
		for v := 0; v < 16; v++ {
			g.MustAddVertex(VertexID(v), Label(v%3+1))
		}
		g.MustAddVertex(16, 9) // alone in shard 1
		opts := FreezeOptions{ShardSize: 16}
		if got := labelIndexes(g.FreezeSharded(opts), 9); len(got) != 1 {
			t.Fatalf("label 9 index %v, want one entry", got)
		}
		g.MustRemoveVertex(16) // shard 1 disappears entirely
		s2 := g.FreezeSharded(opts)
		if s2.NumShards() != 1 {
			t.Fatalf("NumShards = %d, want 1", s2.NumShards())
		}
		if got := labelIndexes(s2, 9); len(got) != 0 {
			t.Fatalf("label 9 survived its shard being dropped: %v", got)
		}
		assertSnapshotMatchesScratch(t, g, s2)
	})
}

func TestFromSnapshotRoundTrip(t *testing.T) {
	g := buildDenseGraph(50)
	restored := FromSnapshot(g.FreezeSharded(FreezeOptions{ShardSize: 16}))
	if !g.Equal(restored) {
		t.Fatalf("FromSnapshot round trip diverged: %v vs %v", g, restored)
	}
}

// TestFromSnapshotRestoresSparseGraph restores a graph with sparse IDs and
// isolated vertices and then mutates the original and the restored graph
// alike. The restored adjacency rows are cut from one array at exactly their
// degree, so an edge added to a full row must move that row out rather than
// write into its neighbour's: every row is compared, not only the edge set.
func TestFromSnapshotRestoresSparseGraph(t *testing.T) {
	g := New("sparse")
	for _, v := range []VertexID{3, 10, 11, 40, 41, 97, 500, 501, 1000} {
		g.MustAddVertex(v, Label(v%3))
	}
	for _, e := range [][2]VertexID{{3, 10}, {10, 11}, {11, 40}, {3, 40}, {40, 41}, {97, 500}} {
		g.MustAddEdge(e[0], e[1])
	}
	// 501 and 1000 are isolated.
	restored := FromSnapshot(g.FreezeSharded(FreezeOptions{ShardSize: 4}))
	requireSameGraph := func(step string) {
		t.Helper()
		if !g.Equal(restored) || !reflect.DeepEqual(g.SortedVertices(), restored.SortedVertices()) {
			t.Fatalf("%s: restored graph %v diverged from %v", step, restored, g)
		}
		for _, v := range g.SortedVertices() {
			if want, got := g.Neighbors(v), restored.Neighbors(v); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: vertex %d has neighbours %v restored, %v in the original", step, v, got, want)
			}
		}
	}
	requireSameGraph("restored")
	for _, mutate := range []func(*Graph){
		func(h *Graph) { h.MustAddEdge(10, 40) },    // both rows full
		func(h *Graph) { h.MustAddEdge(501, 1000) }, // two empty rows
		func(h *Graph) { h.MustRemoveEdge(3, 10) },
		func(h *Graph) { h.MustAddEdge(3, 41) },
		func(h *Graph) { h.MustRemoveVertex(40) },
		func(h *Graph) { h.MustAddVertex(7, 2); h.MustAddEdge(7, 11) },
	} {
		mutate(g)
		mutate(restored)
		requireSameGraph("after a mutation")
	}
}

// TestSharesShard holds SharesShard to the block layout on 128-vertex
// shards of two column blocks each: a patched shard never shares with its
// parent, though it keeps its clean block's columns by reference; a clean
// shard whose columns a mid-range insert or removal remapped keeps its
// rowPtr but not its blocks, and does not share, or the store would carry
// its stale segment; an untouched shard shares.
func TestSharesShard(t *testing.T) {
	opts := FreezeOptions{ShardSize: 128}
	t.Run("patched", func(t *testing.T) {
		g := buildDenseGraph(512)
		s1 := g.FreezeSharded(opts)
		g.MustAddEdge(2, 130) // rows 2 and 130: block 0 of shards 0 and 1
		s2 := g.FreezeSharded(opts)
		for k := 0; k < 2; k++ {
			a, b := s2.shards[k], s1.shards[k]
			if s2.SharesShard(s1, k) || sameInt32Backing(a.rowPtr, b.rowPtr) || sameCols(a, b) {
				t.Errorf("patched shard %d shares its rowPtr or block table with its parent", k)
			}
			if sameInt32Backing(a.cols[0].col, b.cols[0].col) || !sameInt32Backing(a.cols[1].col, b.cols[1].col) {
				t.Errorf("patched shard %d copied its clean block or kept its stale one", k)
			}
		}
		for k := 2; k < 4; k++ {
			if !s2.SharesShard(s1, k) {
				t.Errorf("untouched shard %d reported as changed", k)
			}
		}
		if s2.SharesShard(nil, 0) || s2.SharesShard(s1, 99) {
			t.Error("SharesShard accepted an out-of-range comparison")
		}
		assertSnapshotMatchesScratch(t, g, s2)
	})
	remapped := func(t *testing.T, g *Graph, s1 *Snapshot) {
		t.Helper()
		s2 := g.FreezeSharded(opts)
		for k := 0; k < 2; k++ {
			a, b := s2.shards[k], s1.shards[k]
			if s2.SharesShard(s1, k) || !sameInt32Backing(a.rowPtr, b.rowPtr) || sameCols(a, b) {
				t.Errorf("remapped shard %d: shared %v, same rowPtr %v, same blocks %v; want false, true, false",
					k, s2.SharesShard(s1, k), sameInt32Backing(a.rowPtr, b.rowPtr), sameCols(a, b))
			}
		}
		assertSnapshotMatchesScratch(t, g, s2)
	}
	t.Run("remapped-by-removal", func(t *testing.T) {
		g := buildDenseGraph(512) // chords tie shards 0 and 1 to 2 and 3
		s1 := g.FreezeSharded(opts)
		g.MustRemoveVertex(300) // shard 2; its edges stay there
		remapped(t, g, s1)
	})
	t.Run("remapped-by-insert", func(t *testing.T) {
		g := New("gaps")
		for v := 0; v < 512; v++ {
			g.MustAddVertex(VertexID(2*v), Label(v%3))
		}
		for v := 0; v < 256; v++ {
			g.MustAddEdge(VertexID(2*v), VertexID(2*v+512))
		}
		s1 := g.FreezeSharded(opts)
		g.MustAddVertex(601, 1) // dense position 301, in shard 2
		remapped(t, g, s1)
	})
}

// TestApplyReplaysMutationStream checks that replaying a drained feed onto a
// copy of the pre-mutation graph reproduces the mutated graph exactly, and
// that Apply is strict about mutations that no longer fit.
func TestApplyReplaysMutationStream(t *testing.T) {
	g := buildDenseGraph(30)
	replica := g.Clone()
	f := g.Subscribe()
	defer f.Close()

	g.MustAddVertex(100, 7)
	g.MustAddEdge(100, 3)
	g.MustRemoveEdge(5, 6)
	g.MustRemoveVertex(10)
	g.MustAddVertex(10, 2) // re-add after removal
	g.MustAddEdge(10, 11)

	for i, m := range f.Drain() {
		if err := replica.Apply(m); err != nil {
			t.Fatalf("Apply #%d (%+v): %v", i, m, err)
		}
	}
	if !g.Equal(replica) {
		t.Fatalf("replay diverged: %v vs %v", g, replica)
	}

	if err := replica.Apply(Mutation{Kind: MutEdgeAdded, U: 10, V: 11}); err == nil {
		t.Fatal("duplicate edge replay did not error")
	}
	if err := replica.Apply(Mutation{Kind: MutVertexRemoved, U: 10}); err == nil {
		t.Fatal("removing a non-isolated vertex via Apply did not error")
	}
	if err := replica.Apply(Mutation{Kind: 99}); err == nil {
		t.Fatal("unknown mutation kind did not error")
	}
}
