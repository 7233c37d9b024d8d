package graph

import (
	"reflect"
	"sync"
	"testing"
)

// externalFrom rebuilds the shards of a frozen snapshot as ExternalShard
// values through the public read API, copying every array to fresh heap
// slices — the same reconstruction the on-disk store performs.
func externalFrom(t *testing.T, s *Snapshot) []ExternalShard {
	t.Helper()
	out := make([]ExternalShard, s.NumShards())
	for k := 0; k < s.NumShards(); k++ {
		lo, hi := s.ShardRange(k)
		ext := ExternalShard{
			IDs:    make([]VertexID, 0, hi-lo),
			Labels: make([]Label, 0, hi-lo),
			RowPtr: make([]int32, 1, hi-lo+1),
		}
		labels := make(map[Label]bool)
		for i := lo; i < hi; i++ {
			ext.IDs = append(ext.IDs, s.ID(i))
			l := s.LabelAt(i)
			ext.Labels = append(ext.Labels, l)
			labels[l] = true
			ext.ColIdx = append(ext.ColIdx, s.NeighborsAt(i)...)
			ext.RowPtr = append(ext.RowPtr, int32(len(ext.ColIdx)))
		}
		ext.ByLabel = make(map[Label][]int32, len(labels))
		for l := range labels {
			idxs := s.ShardIndexesWithLabel(k, l)
			ext.ByLabel[l] = append([]int32(nil), idxs...)
		}
		out[k] = ext
	}
	return out
}

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("external")
	for i := 0; i < 23; i++ {
		g.MustAddVertex(VertexID(i*3), Label(i%4))
	}
	ids := g.SortedVertices()
	for i := 1; i < len(ids); i++ {
		g.MustAddEdge(ids[i-1], ids[i])
		if j := (i * 7) % i; j != i && !g.HasEdge(ids[i], ids[j]) {
			g.MustAddEdge(ids[i], ids[j])
		}
	}
	return g
}

// TestExternalSnapshotMatchesFrozen round-trips a sharded snapshot through
// ExternalShard values and checks every read accessor agrees with the
// original.
func TestExternalSnapshotMatchesFrozen(t *testing.T) {
	g := testGraph(t)
	for _, shards := range []int{1, 2, 7} {
		snap := g.FreezeSharded(FreezeOptions{Shards: shards})
		shift := uint(0)
		for 1<<shift < snap.ShardSize() {
			shift++
		}
		ext, err := NewExternalSnapshot(snap.Name(), shift, snap.NumEdges(), externalFrom(t, snap), nil)
		if err != nil {
			t.Fatalf("shards=%d: NewExternalSnapshot: %v", shards, err)
		}
		if ext.NumVertices() != snap.NumVertices() || ext.NumEdges() != snap.NumEdges() || ext.NumShards() != snap.NumShards() {
			t.Fatalf("shards=%d: totals differ: got |V|=%d |E|=%d shards=%d, want |V|=%d |E|=%d shards=%d",
				shards, ext.NumVertices(), ext.NumEdges(), ext.NumShards(), snap.NumVertices(), snap.NumEdges(), snap.NumShards())
		}
		for i := int32(0); i < int32(snap.NumVertices()); i++ {
			if ext.ID(i) != snap.ID(i) || ext.LabelAt(i) != snap.LabelAt(i) || ext.DegreeAt(i) != snap.DegreeAt(i) {
				t.Fatalf("shards=%d: accessor mismatch at index %d", shards, i)
			}
			if !reflect.DeepEqual(ext.NeighborsAt(i), snap.NeighborsAt(i)) {
				t.Fatalf("shards=%d: neighbors differ at index %d", shards, i)
			}
		}
		for _, l := range snap.Labels() {
			if !reflect.DeepEqual(labelIndexes(ext, l), labelIndexes(snap, l)) {
				t.Fatalf("shards=%d: label index differs for label %d", shards, l)
			}
		}
		if !reflect.DeepEqual(ext.Labels(), snap.Labels()) {
			t.Fatalf("shards=%d: Labels() differ: %v vs %v", shards, ext.Labels(), snap.Labels())
		}
	}
}

// TestExternalSnapshotDerivesByLabel checks the nil-ByLabel path builds the
// same partition FreezeSharded does.
func TestExternalSnapshotDerivesByLabel(t *testing.T) {
	g := testGraph(t)
	snap := g.FreezeSharded(FreezeOptions{Shards: 4})
	shift := uint(0)
	for 1<<shift < snap.ShardSize() {
		shift++
	}
	shards := externalFrom(t, snap)
	for k := range shards {
		shards[k].ByLabel = nil
	}
	ext, err := NewExternalSnapshot(snap.Name(), shift, snap.NumEdges(), shards, nil)
	if err != nil {
		t.Fatalf("NewExternalSnapshot: %v", err)
	}
	for k := 0; k < snap.NumShards(); k++ {
		for _, l := range snap.Labels() {
			if !reflect.DeepEqual(ext.ShardIndexesWithLabel(k, l), snap.ShardIndexesWithLabel(k, l)) {
				t.Fatalf("shard %d label %d: derived partition differs", k, l)
			}
		}
	}
}

// TestExternalSnapshotValidation exercises the geometry checks.
func TestExternalSnapshotValidation(t *testing.T) {
	good := ExternalShard{
		IDs:    []VertexID{1, 2},
		Labels: []Label{0, 1},
		RowPtr: []int32{0, 1, 2},
		ColIdx: []int32{1, 0},
	}
	if _, err := NewExternalSnapshot("ok", 1, 1, []ExternalShard{good}, nil); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	cases := []struct {
		name  string
		shift uint
		sh    []ExternalShard
	}{
		{"empty shard", 1, []ExternalShard{{}}},
		{"oversized shard", 0, []ExternalShard{good}},
		{"label length", 1, []ExternalShard{{IDs: good.IDs, Labels: good.Labels[:1], RowPtr: good.RowPtr, ColIdx: good.ColIdx}}},
		{"rowptr length", 1, []ExternalShard{{IDs: good.IDs, Labels: good.Labels, RowPtr: good.RowPtr[:2], ColIdx: good.ColIdx}}},
		{"rowptr span", 1, []ExternalShard{{IDs: good.IDs, Labels: good.Labels, RowPtr: []int32{0, 1, 1}, ColIdx: good.ColIdx}}},
		{"partial non-final shard", 1, []ExternalShard{
			{IDs: []VertexID{1}, Labels: []Label{0}, RowPtr: []int32{0, 0}},
			{IDs: []VertexID{2}, Labels: []Label{0}, RowPtr: []int32{0, 0}},
		}},
	}
	for _, c := range cases {
		if _, err := NewExternalSnapshot(c.name, c.shift, 0, c.sh, nil); err == nil {
			t.Errorf("%s: expected error, got none", c.name)
		}
	}
}

// countingBacking records acquire/release calls per shard.
type countingBacking struct {
	mu       sync.Mutex
	acquired map[int]int
	released map[int]int
}

func (b *countingBacking) AcquireShard(k int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.acquired == nil {
		b.acquired = make(map[int]int)
	}
	b.acquired[k]++
}

func (b *countingBacking) ReleaseShard(k int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.released == nil {
		b.released = make(map[int]int)
	}
	b.released[k]++
}

// TestSnapshotBackingHints checks that Acquire/ReleaseShard reach the backing
// and that heap snapshots tolerate the calls without one.
func TestSnapshotBackingHints(t *testing.T) {
	g := testGraph(t)
	snap := g.FreezeSharded(FreezeOptions{Shards: 4})
	snap.AcquireShard(0) // no backing: must be a no-op
	snap.ReleaseShard(0)

	shift := uint(0)
	for 1<<shift < snap.ShardSize() {
		shift++
	}
	b := &countingBacking{}
	ext, err := NewExternalSnapshot(snap.Name(), shift, snap.NumEdges(), externalFrom(t, snap), b)
	if err != nil {
		t.Fatalf("NewExternalSnapshot: %v", err)
	}
	ext.AcquireShard(2)
	ext.AcquireShard(2)
	ext.ReleaseShard(2)
	if b.acquired[2] != 2 || b.released[2] != 1 {
		t.Fatalf("backing saw acquire=%d release=%d, want 2/1", b.acquired[2], b.released[2])
	}
	// The backing survives a diagnostic rename (withName copy).
	ext.withName("renamed").AcquireShard(1)
	if b.acquired[1] != 1 {
		t.Fatalf("renamed snapshot dropped its backing")
	}
}
