package graph

import (
	"slices"
	"testing"
)

// buildTestGraph returns a small graph with non-dense vertex IDs, mirroring
// the paper's figures which number vertices from 1.
func buildTestGraph() *Graph {
	g := New("snap")
	g.MustAddVertex(7, 1)
	g.MustAddVertex(3, 2)
	g.MustAddVertex(10, 1)
	g.MustAddVertex(1, 3)
	g.MustAddEdge(7, 3)
	g.MustAddEdge(3, 10)
	g.MustAddEdge(10, 1)
	g.MustAddEdge(7, 10)
	return g
}

func TestFreezeMatchesGraph(t *testing.T) {
	g := buildTestGraph()
	s := g.Freeze()

	if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("snapshot size %d/%d, graph %d/%d", s.NumVertices(), s.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for i := int32(0); i < int32(s.NumVertices()); i++ {
		v := s.ID(i)
		j, ok := s.IndexOf(v)
		if !ok || j != i {
			t.Fatalf("IndexOf(ID(%d)) = (%d, %v), want (%d, true)", i, j, ok, i)
		}
		if got, want := s.LabelAt(i), g.MustLabelOf(v); got != want {
			t.Errorf("label of %d: snapshot %d, graph %d", v, got, want)
		}
		if got, want := s.DegreeAt(i), g.Degree(v); got != want {
			t.Errorf("degree of %d: snapshot %d, graph %d", v, got, want)
		}
		nbs := s.Neighbors(v)
		want := g.Neighbors(v)
		if len(nbs) != len(want) {
			t.Fatalf("neighbors of %d: snapshot %v, graph %v", v, nbs, want)
		}
		for k := range nbs {
			if nbs[k] != want[k] {
				t.Errorf("neighbors of %d: snapshot %v, graph %v", v, nbs, want)
				break
			}
		}
	}
	// Edge membership must agree on all pairs.
	for _, u := range g.SortedVertices() {
		for _, v := range g.SortedVertices() {
			if got, want := s.HasEdge(u, v), g.HasEdge(u, v); got != want {
				t.Errorf("HasEdge(%d,%d): snapshot %v, graph %v", u, v, got, want)
			}
		}
	}
	// Label partitions must agree with the graph's label index.
	for _, l := range g.Labels() {
		idxs := labelIndexes(s, l)
		want := g.VerticesWithLabel(l)
		if len(idxs) != len(want) {
			t.Fatalf("label %d: snapshot %v, graph %v", l, idxs, want)
		}
		for k, i := range idxs {
			if s.ID(i) != want[k] {
				t.Errorf("label %d entry %d: snapshot %d, graph %d", l, k, s.ID(i), want[k])
			}
		}
	}
}

// labelIndexes returns the sorted dense indexes of s's vertices carrying
// label l: the per-shard partitions concatenated in shard order.
func labelIndexes(s *Snapshot, l Label) []int32 {
	var out []int32
	for k := 0; k < s.NumShards(); k++ {
		out = append(out, s.ShardIndexesWithLabel(k, l)...)
	}
	return out
}

// buildChainGraph returns a deterministic 40-vertex graph with a mix of
// local chain edges and longer chords, so sharded freezes have plenty of
// cross-shard adjacency to get wrong.
func buildChainGraph() *Graph {
	g := New("chain")
	const n = 40
	for v := 0; v < n; v++ {
		g.MustAddVertex(VertexID(v*3), Label(v%3+1)) // non-dense IDs
	}
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(VertexID(v*3), VertexID((v+1)*3))
	}
	for v := 0; v+7 < n; v += 5 {
		g.MustAddEdge(VertexID(v*3), VertexID((v+7)*3))
	}
	return g
}

// TestFreezeShardedMatchesUnsharded checks that every Snapshot accessor is
// identical between the single-shard freeze and sharded freezes of assorted
// granularities, including shard counts that do not divide the vertex count.
func TestFreezeShardedMatchesUnsharded(t *testing.T) {
	g := buildChainGraph()
	flat := g.FreezeSharded(FreezeOptions{Shards: 1})
	if flat.NumShards() != 1 {
		t.Fatalf("Shards:1 built %d shards", flat.NumShards())
	}
	for _, opts := range []FreezeOptions{
		{Shards: 2}, {Shards: 7}, {ShardSize: 1}, {ShardSize: 3}, {ShardSize: 64},
	} {
		s := g.FreezeSharded(opts)
		if s.NumVertices() != flat.NumVertices() || s.NumEdges() != flat.NumEdges() {
			t.Fatalf("%+v: size %d/%d, want %d/%d", opts, s.NumVertices(), s.NumEdges(), flat.NumVertices(), flat.NumEdges())
		}
		wantShards := (g.NumVertices() + s.ShardSize() - 1) / s.ShardSize()
		if s.NumShards() != wantShards {
			t.Errorf("%+v: NumShards = %d, want %d", opts, s.NumShards(), wantShards)
		}
		// The shard ranges must partition [0, n) contiguously.
		next := int32(0)
		for k := 0; k < s.NumShards(); k++ {
			lo, hi := s.ShardRange(k)
			if lo != next || hi <= lo {
				t.Fatalf("%+v: shard %d covers [%d,%d), want lo=%d", opts, k, lo, hi, next)
			}
			for i := lo; i < hi; i++ {
				if s.ShardOf(i) != k {
					t.Fatalf("%+v: ShardOf(%d) = %d, want %d", opts, i, s.ShardOf(i), k)
				}
			}
			next = hi
		}
		if int(next) != s.NumVertices() {
			t.Fatalf("%+v: shards cover [0,%d), want [0,%d)", opts, next, s.NumVertices())
		}
		for i := int32(0); i < int32(s.NumVertices()); i++ {
			if s.ID(i) != flat.ID(i) || s.LabelAt(i) != flat.LabelAt(i) || s.DegreeAt(i) != flat.DegreeAt(i) {
				t.Fatalf("%+v: index %d: id/label/degree %d/%d/%d, want %d/%d/%d", opts, i,
					s.ID(i), s.LabelAt(i), s.DegreeAt(i), flat.ID(i), flat.LabelAt(i), flat.DegreeAt(i))
			}
			row, want := s.NeighborsAt(i), flat.NeighborsAt(i)
			if len(row) != len(want) {
				t.Fatalf("%+v: neighbors of %d: %v, want %v", opts, i, row, want)
			}
			for k := range want {
				if row[k] != want[k] {
					t.Fatalf("%+v: neighbors of %d: %v, want %v", opts, i, row, want)
				}
			}
			if j, ok := s.IndexOf(s.ID(i)); !ok || j != i {
				t.Fatalf("%+v: IndexOf(ID(%d)) = (%d, %v)", opts, i, j, ok)
			}
		}
		// The concatenated per-shard label partitions must equal the flat
		// snapshot's one partition.
		for _, l := range g.Labels() {
			if got, want := labelIndexes(s, l), flat.ShardIndexesWithLabel(0, l); !slices.Equal(got, want) {
				t.Fatalf("%+v: label %d: %v, want %v", opts, l, got, want)
			}
		}
	}
}

// TestFreezeShardedCaching checks that snapshots are cached per resolved
// shard size and that a mutation makes the next freeze return a fresh
// snapshot (incrementally rebuilt — see incremental_test.go — but never the
// stale object).
func TestFreezeShardedCaching(t *testing.T) {
	g := buildTestGraph()
	flat := g.Freeze()
	if s := g.FreezeSharded(FreezeOptions{Shards: 1}); s != flat {
		t.Error("Shards:1 and auto freeze of a small graph did not share the cached snapshot")
	}
	two := g.FreezeSharded(FreezeOptions{Shards: 2})
	if two == flat {
		t.Error("Shards:2 returned the single-shard snapshot")
	}
	if again := g.FreezeSharded(FreezeOptions{Shards: 2}); again != two {
		t.Error("second Shards:2 freeze was not cached")
	}
	g.MustAddVertex(99, 1)
	if stale := g.FreezeSharded(FreezeOptions{Shards: 2}); stale == two {
		t.Error("mutation did not invalidate the sharded snapshot cache")
	}
}

func TestFreezeCachesAndInvalidates(t *testing.T) {
	g := buildTestGraph()
	s1 := g.Freeze()
	if s2 := g.Freeze(); s2 != s1 {
		t.Error("Freeze did not cache the snapshot between calls")
	}
	g.MustAddVertex(20, 2)
	s3 := g.Freeze()
	if s3 == s1 {
		t.Fatal("Freeze returned a stale snapshot after AddVertex")
	}
	if s3.NumVertices() != g.NumVertices() {
		t.Fatalf("stale vertex count %d, want %d", s3.NumVertices(), g.NumVertices())
	}
	g.MustAddEdge(20, 7)
	s4 := g.Freeze()
	if s4 == s3 {
		t.Fatal("Freeze returned a stale snapshot after AddEdge")
	}
	if !s4.HasEdge(20, 7) {
		t.Error("snapshot missing the edge added after the previous freeze")
	}
}

func TestFreezeMissingVertex(t *testing.T) {
	s := buildTestGraph().Freeze()
	if _, ok := s.IndexOf(99); ok {
		t.Error("IndexOf(99) found a nonexistent vertex")
	}
	if s.Degree(99) != 0 {
		t.Error("Degree(99) != 0 for a nonexistent vertex")
	}
	if s.HasEdge(99, 7) || s.HasEdge(7, 99) {
		t.Error("HasEdge involving a nonexistent vertex returned true")
	}
	if s.Neighbors(99) != nil {
		t.Error("Neighbors(99) returned a non-nil slice")
	}
}

// TestIndexOfAcrossShards probes every ID from below the first vertex to
// above the last on a graph whose IDs have gaps, at shard sizes that put the
// probe before the first shard, between two shards and past the last.
func TestIndexOfAcrossShards(t *testing.T) {
	g := New("gaps")
	for v := VertexID(5); v < 200; v += 1 + v%7 {
		g.MustAddVertex(v, 1)
	}
	for _, size := range []int{1, 4, 16, 1 << 10} {
		s := g.FreezeSharded(FreezeOptions{ShardSize: size})
		next := int32(0)
		for v := VertexID(0); v < 210; v++ {
			i, ok := s.IndexOf(v)
			if present := g.HasVertex(v); ok != present || (ok && (i != next || s.ID(i) != v)) {
				t.Fatalf("shard size %d: IndexOf(%d) = (%d, %v), present %v, next index %d", size, v, i, ok, present, next)
			}
			if ok {
				next++
			}
		}
		if int(next) != s.NumVertices() {
			t.Fatalf("shard size %d: found %d of %d vertices", size, next, s.NumVertices())
		}
	}
	if _, ok := New("empty").Freeze().IndexOf(0); ok {
		t.Error("IndexOf found a vertex in an empty snapshot")
	}
}
