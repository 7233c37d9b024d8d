package graph

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// sameInt32Backing reports whether two slices share the same backing array
// (used to assert that clean shards are reused by reference, not copied).
func sameInt32Backing(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameCols reports whether two shards share their column block table.
func sameCols(a, b shard) bool {
	return len(a.cols) == len(b.cols) && (len(a.cols) == 0 || &a.cols[0] == &b.cols[0])
}

func sameIDBacking(a, b []VertexID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// assertSnapshotMatchesScratch compares every accessor of got against a
// from-scratch CSR build of g at the same granularity.
func assertSnapshotMatchesScratch(t *testing.T, g *Graph, got *Snapshot) {
	t.Helper()
	want := buildSnapshot(g, got.shardShift)
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("totals %d/%d, want %d/%d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if got.NumShards() != want.NumShards() {
		t.Fatalf("NumShards = %d, want %d", got.NumShards(), want.NumShards())
	}
	for i := int32(0); i < int32(want.NumVertices()); i++ {
		if got.ID(i) != want.ID(i) || got.LabelAt(i) != want.LabelAt(i) {
			t.Fatalf("index %d: id/label %d/%d, want %d/%d", i, got.ID(i), got.LabelAt(i), want.ID(i), want.LabelAt(i))
		}
		row, wrow := got.NeighborsAt(i), want.NeighborsAt(i)
		if len(row) != len(wrow) {
			t.Fatalf("index %d: neighbors %v, want %v", i, row, wrow)
		}
		for k := range wrow {
			if row[k] != wrow[k] {
				t.Fatalf("index %d: neighbors %v, want %v", i, row, wrow)
			}
		}
	}
	for _, l := range g.Labels() {
		if gi, wi := labelIndexes(got, l), labelIndexes(want, l); !slices.Equal(gi, wi) {
			t.Fatalf("label %d: shard concat %v, want %v", l, gi, wi)
		}
	}
}

// buildDenseGraph returns a graph with vertices 0..n-1 (labels cycling over
// three values), a ring of local edges and some longer chords so shards have
// cross-shard adjacency.
func buildDenseGraph(n int) *Graph {
	g := New("dense")
	for v := 0; v < n; v++ {
		g.MustAddVertex(VertexID(v), Label(v%3+1))
	}
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(VertexID(v), VertexID(v+1))
	}
	for v := 0; v+n/2 < n; v += 5 {
		g.MustAddEdge(VertexID(v), VertexID(v+n/2))
	}
	return g
}

// TestIncrementalRefreezeEdgeOnly checks the acceptance-criterion scenario:
// on a 4-shard snapshot, one AddEdge dirties at most the two endpoint shards
// and the refreeze rebuilds exactly those, reusing the other shards' arrays
// by reference.
func TestIncrementalRefreezeEdgeOnly(t *testing.T) {
	g := buildDenseGraph(64)
	opts := FreezeOptions{ShardSize: 16}
	s1 := g.FreezeSharded(opts)
	if s1.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s1.NumShards())
	}

	before := g.shardBuilds.Load()
	// Endpoints land in shards 1 (indexes 16..31) and 2 (indexes 32..47).
	g.MustAddEdge(17, 40)
	s2 := g.FreezeSharded(opts)
	if delta := g.shardBuilds.Load() - before; delta != 2 {
		t.Fatalf("refreeze rebuilt %d shards, want 2", delta)
	}
	if s2 == s1 {
		t.Fatal("refreeze returned the stale snapshot")
	}
	for _, k := range []int{0, 3} {
		if !sameIDBacking(s1.shards[k].ids, s2.shards[k].ids) ||
			!sameCols(s1.shards[k], s2.shards[k]) ||
			!sameInt32Backing(s1.shards[k].rowPtr, s2.shards[k].rowPtr) {
			t.Errorf("clean shard %d was copied instead of reused by reference", k)
		}
	}
	for _, k := range []int{1, 2} {
		if sameCols(s1.shards[k], s2.shards[k]) {
			t.Errorf("dirty shard %d still shares its column blocks with the stale snapshot", k)
		}
	}
	assertSnapshotMatchesScratch(t, g, s2)

	// The old handle still reads pre-mutation data.
	if s1.HasEdge(17, 40) {
		t.Error("pre-mutation snapshot sees the new edge")
	}
	if s1.NumEdges() != s2.NumEdges()-1 {
		t.Errorf("old snapshot |E| = %d, new %d", s1.NumEdges(), s2.NumEdges())
	}

	// A second refreeze without mutations is a cache hit.
	before = g.shardBuilds.Load()
	if s3 := g.FreezeSharded(opts); s3 != s2 {
		t.Error("clean refreeze did not return the cached snapshot")
	}
	if delta := g.shardBuilds.Load() - before; delta != 0 {
		t.Errorf("clean refreeze rebuilt %d shards", delta)
	}
}

// TestIncrementalRefreezeAppend checks the bulk-load fast path: appending at
// a new maximum VertexID rebuilds only the trailing shard, and appending when
// the last shard is exactly full rebuilds no pre-existing shard at all.
func TestIncrementalRefreezeAppend(t *testing.T) {
	t.Run("partial-last-shard", func(t *testing.T) {
		g := buildDenseGraph(40) // ShardSize 16 -> shards of 16,16,8
		opts := FreezeOptions{ShardSize: 16}
		s1 := g.FreezeSharded(opts)
		before := g.shardBuilds.Load()
		g.MustAddVertex(100, 2)
		g.MustAddEdge(100, 39)
		s2 := g.FreezeSharded(opts)
		if delta := g.shardBuilds.Load() - before; delta != 1 {
			t.Fatalf("append rebuilt %d shards, want 1 (the partial last shard)", delta)
		}
		for k := 0; k < 2; k++ {
			if !sameCols(s1.shards[k], s2.shards[k]) {
				t.Errorf("clean shard %d not reused by reference", k)
			}
		}
		assertSnapshotMatchesScratch(t, g, s2)
	})

	t.Run("full-last-shard", func(t *testing.T) {
		g := buildDenseGraph(32) // ShardSize 16 -> two exactly full shards
		opts := FreezeOptions{ShardSize: 16}
		s1 := g.FreezeSharded(opts)
		before := g.shardBuilds.Load()
		g.MustAddVertex(100, 1)
		s2 := g.FreezeSharded(opts)
		if delta := g.shardBuilds.Load() - before; delta != 1 {
			t.Fatalf("append built %d shards, want 1 (the brand-new shard)", delta)
		}
		if s2.NumShards() != 3 {
			t.Fatalf("NumShards = %d, want 3", s2.NumShards())
		}
		for k := 0; k < 2; k++ {
			if !sameCols(s1.shards[k], s2.shards[k]) {
				t.Errorf("clean shard %d not reused by reference", k)
			}
		}
		assertSnapshotMatchesScratch(t, g, s2)
	})
}

// TestIncrementalRefreezeMidInsert checks vertex inserts that shift dense
// indexes: shards from the insert position onward are rebuilt, earlier
// shards keep their ids/labels by reference but get their global neighbor
// references remapped.
func TestIncrementalRefreezeMidInsert(t *testing.T) {
	g := New("mid")
	const n = 64
	for v := 0; v < n; v++ {
		g.MustAddVertex(VertexID(v*2), Label(v%2+1)) // even IDs leave gaps
	}
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(VertexID(v*2), VertexID((v+1)*2))
	}
	// Chords from shard 0 into the tail so the remap has work to do.
	g.MustAddEdge(0, VertexID((n-1)*2))
	g.MustAddEdge(10, VertexID((n-4)*2))

	opts := FreezeOptions{ShardSize: 16}
	s1 := g.FreezeSharded(opts)
	if s1.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s1.NumShards())
	}
	before := g.shardBuilds.Load()
	// Dense position 31 -> shard 1: shards 1..3 rebuild, and growing to 65
	// vertices adds a fifth shard for the spilled-over last index.
	g.MustAddVertex(61, 1)
	s2 := g.FreezeSharded(opts)
	if delta := g.shardBuilds.Load() - before; delta != 4 {
		t.Fatalf("mid insert rebuilt %d shards, want 4", delta)
	}
	// Shard 0 keeps its ids/labels/rowPtr by reference; its columns are
	// remapped (they reference shifted indexes) into fresh blocks.
	if !sameIDBacking(s1.shards[0].ids, s2.shards[0].ids) ||
		!sameInt32Backing(s1.shards[0].rowPtr, s2.shards[0].rowPtr) {
		t.Error("clean prefix shard 0 did not share ids/rowPtr")
	}
	if sameCols(s1.shards[0], s2.shards[0]) {
		t.Error("prefix shard columns were reused without remapping despite shifted indexes")
	}
	assertSnapshotMatchesScratch(t, g, s2)
	// Edges into the mutated region must now resolve via shifted indexes.
	if !s2.HasEdge(0, VertexID((n-1)*2)) || !s2.HasEdge(10, VertexID((n-4)*2)) {
		t.Error("chord edges lost after mid insert refreeze")
	}
	if s1.NumVertices() != n {
		t.Errorf("old snapshot |V| = %d, want %d", s1.NumVertices(), n)
	}
}

// TestIncrementalRefreezeMatrix interleaves edge adds, appends and mid
// inserts with refreezes at several granularities and checks the refreshed
// snapshot against a from-scratch build after every step.
func TestIncrementalRefreezeMatrix(t *testing.T) {
	for _, opts := range []FreezeOptions{{Shards: 1}, {Shards: 2}, {Shards: 7}, {ShardSize: 16}} {
		opts := opts
		t.Run(fmt.Sprintf("shards=%d,size=%d", opts.Shards, opts.ShardSize), func(t *testing.T) {
			g := New("matrix")
			const n = 48
			for v := 0; v < n; v++ {
				g.MustAddVertex(VertexID(v*10), Label(v%3+1)) // gaps leave room for mid inserts
			}
			for v := 0; v+1 < n; v++ {
				g.MustAddEdge(VertexID(v*10), VertexID((v+1)*10))
			}
			s := g.FreezeSharded(opts)
			next := VertexID(10 * n)
			for step := 0; step < 6; step++ {
				switch step % 3 {
				case 0: // edges between existing vertices
					g.MustAddEdge(VertexID(step*10), VertexID((20+step*3)*10))
				case 1: // append at a new maximum ID, then wire it up
					g.MustAddVertex(next, Label(step%3+1))
					g.MustAddEdge(next, VertexID(step*10))
					next++
				case 2: // mid insert into an ID gap, then wire it up
					v := VertexID(step*10 + 5)
					g.MustAddVertex(v, 2)
					g.MustAddEdge(v, VertexID(step*10))
				}
				s = g.FreezeSharded(opts)
				assertSnapshotMatchesScratch(t, g, s)
			}
		})
	}
}

// TestSnapshotCacheLRU checks that alternating two granularities never
// rebuilds and that inserting a granularity beyond the cache capacity evicts
// the least recently used entry, not an arbitrary one.
func TestSnapshotCacheLRU(t *testing.T) {
	g := buildDenseGraph(64)
	sizes := []int{4, 8, 16, 32} // fills the cache (maxCachedSnapshots = 4)
	for _, sz := range sizes {
		g.FreezeSharded(FreezeOptions{ShardSize: sz})
	}
	before := g.shardBuilds.Load()
	for i := 0; i < 10; i++ { // alternating hot granularities: all cache hits
		g.FreezeSharded(FreezeOptions{ShardSize: 4})
		g.FreezeSharded(FreezeOptions{ShardSize: 8})
	}
	if delta := g.shardBuilds.Load() - before; delta != 0 {
		t.Fatalf("alternating two cached granularities rebuilt %d shards", delta)
	}
	// 16 and 32 are now the two coldest entries; a fifth granularity must
	// evict ShardSize 16 (the least recently used) and keep everything else.
	g.FreezeSharded(FreezeOptions{ShardSize: 64})
	before = g.shardBuilds.Load()
	g.FreezeSharded(FreezeOptions{ShardSize: 4})
	g.FreezeSharded(FreezeOptions{ShardSize: 8})
	g.FreezeSharded(FreezeOptions{ShardSize: 32})
	g.FreezeSharded(FreezeOptions{ShardSize: 64})
	if delta := g.shardBuilds.Load() - before; delta != 0 {
		t.Fatalf("a surviving granularity was evicted (%d shards rebuilt), LRU should have dropped ShardSize 16", delta)
	}
	before = g.shardBuilds.Load()
	g.FreezeSharded(FreezeOptions{ShardSize: 16})
	if delta := g.shardBuilds.Load() - before; delta == 0 {
		t.Fatal("ShardSize 16 should have been evicted and rebuilt")
	}
}

// TestSetNameKeepsSnapshots checks that renaming a graph neither rebuilds nor
// drops cached snapshots, while old handles keep the old name.
func TestSetNameKeepsSnapshots(t *testing.T) {
	g := buildDenseGraph(32)
	s1 := g.FreezeSharded(FreezeOptions{ShardSize: 16})
	before := g.shardBuilds.Load()
	g.SetName("renamed")
	s2 := g.FreezeSharded(FreezeOptions{ShardSize: 16})
	if delta := g.shardBuilds.Load() - before; delta != 0 {
		t.Fatalf("SetName caused %d shard rebuilds", delta)
	}
	if s2.Name() != "renamed" {
		t.Errorf("refrozen snapshot name %q, want %q", s2.Name(), "renamed")
	}
	if s1.Name() != "dense" {
		t.Errorf("old snapshot name %q changed", s1.Name())
	}
	for k := range s1.shards {
		if !sameCols(s1.shards[k], s2.shards[k]) {
			t.Errorf("shard %d not shared across SetName", k)
		}
	}
}

// TestDropSnapshots checks the explicit cache-release knob.
func TestDropSnapshots(t *testing.T) {
	g := buildDenseGraph(32)
	s1 := g.Freeze()
	g.DropSnapshots()
	before := g.shardBuilds.Load()
	s2 := g.Freeze()
	if s2 == s1 {
		t.Fatal("Freeze after DropSnapshots returned the dropped snapshot")
	}
	if delta := g.shardBuilds.Load() - before; delta == 0 {
		t.Fatal("Freeze after DropSnapshots did not rebuild")
	}
}

// TestDropSnapshotsConcurrentWithFreeze hammers DropSnapshots against
// concurrent freezes (both are cache operations, legal to interleave on an
// otherwise unmutated graph) and checks every freeze still returns a usable
// snapshot. Run under -race this pins the cache-generation handshake.
func TestDropSnapshotsConcurrentWithFreeze(t *testing.T) {
	g := buildDenseGraph(64)
	wantEdges := g.NumEdges()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if s := g.FreezeSharded(FreezeOptions{ShardSize: 16}); s.NumEdges() != wantEdges {
					t.Errorf("freeze during drops returned |E| = %d, want %d", s.NumEdges(), wantEdges)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			g.DropSnapshots()
		}
	}()
	wg.Wait()
}

// TestOldSnapshotReadersDuringRefreeze hammers a pre-mutation snapshot from
// concurrent readers while the owning goroutine keeps mutating and
// refreezing the graph; run under -race this pins down that incremental
// refreezes share clean shards without ever writing to them.
func TestOldSnapshotReadersDuringRefreeze(t *testing.T) {
	g := buildDenseGraph(64)
	opts := FreezeOptions{ShardSize: 16}
	old := g.FreezeSharded(opts)
	oldEdges := old.NumEdges()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := int32(0); i < int32(old.NumVertices()); i += 7 {
					_ = old.NeighborsAt(i)
					_ = old.LabelAt(i)
				}
				if old.NumEdges() != oldEdges {
					t.Error("old snapshot edge count changed under mutation")
					return
				}
			}
		}()
	}
	next := VertexID(1000)
	for i := 0; i < 20; i++ {
		g.MustAddVertex(next, 1)
		g.MustAddEdge(next, VertexID(i))
		next++
		g.FreezeSharded(opts)
	}
	close(stop)
	wg.Wait()
	if old.NumEdges() != oldEdges {
		t.Fatalf("old snapshot |E| drifted: %d -> %d", oldEdges, old.NumEdges())
	}
}
