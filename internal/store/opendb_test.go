package store_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestOpenDBBuildsNothing opens a durable database over a BA(2^16) store of
// 16 shards with an empty write-ahead log. The restored graph wraps a heap
// copy of the store's snapshot, so OpenDB and the engine's freeze after it
// build no shard, and that freeze returns the committed snapshot itself.
// What the restored database keeps on the heap is that copy and the vertex
// order (≈ 3.4 MB), not maps over every vertex and edge (≈ 17.8 MB more).
// OpenDB has closed the store, unmapping its segments, before the graph is
// read here, so a copy that still aliased them would fault.
func TestOpenDBBuildsNothing(t *testing.T) {
	dir := t.TempDir()
	want := gen.BarabasiAlbert(1<<16, 2, gen.UniformLabels{K: 4}, 1)
	if err := store.Write(want.FreezeSharded(graph.FreezeOptions{Shards: 16}), dir); err != nil {
		t.Fatal(err)
	}
	want.DropSnapshots()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	built := obs.Default.CounterValue("repro_graph_shard_builds_total")
	db, err := store.OpenDB(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Graph().FreezeSharded(db.FreezeOptions())
	if n := obs.Default.CounterValue("repro_graph_shard_builds_total") - built; n != 0 {
		t.Errorf("OpenDB and the freeze after it built %d shards, want 0", n)
	}
	if snap != store.CommittedSnapshot(db) {
		t.Error("the freeze after OpenDB is not the committed snapshot")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("the restored database retains %.2f MB of heap", float64(retained)/(1<<20))
	if retained > 5<<20 {
		t.Errorf("the restored database retains %d bytes of heap, want at most 5 MiB", retained)
	}

	if !db.Graph().Equal(want) {
		t.Fatal("the restored graph differs from the one written")
	}
	ref := want.FreezeSharded(graph.FreezeOptions{Shards: 16})
	if snap.NumShards() != 16 || snap.NumVertices() != ref.NumVertices() || snap.NumEdges() != ref.NumEdges() {
		t.Fatalf("restored snapshot has %d shards, %d vertices, %d edges", snap.NumShards(), snap.NumVertices(), snap.NumEdges())
	}
	for i := int32(0); i < int32(ref.NumVertices()); i++ {
		if snap.ID(i) != ref.ID(i) || snap.LabelAt(i) != ref.LabelAt(i) || !slices.Equal(snap.NeighborsAt(i), ref.NeighborsAt(i)) {
			t.Fatalf("restored snapshot differs from a fresh freeze at index %d", i)
		}
	}
	runtime.KeepAlive(db)
}
