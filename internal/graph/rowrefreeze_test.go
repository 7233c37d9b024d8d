package graph

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// copyShards deep-copies a snapshot's shard arrays, so a later comparison can
// tell whether anything wrote to them.
func copyShards(s *Snapshot) []shard {
	out := make([]shard, len(s.shards))
	for k, sh := range s.shards {
		rowPtr := slices.Clone(sh.rowPtr)
		out[k] = shard{lo: sh.lo, ids: slices.Clone(sh.ids), labels: slices.Clone(sh.labels),
			rowPtr: rowPtr, cols: blockTable(rowPtr, sh.appendCols(nil)), byLabel: make(map[Label][]int32)}
		for l, idxs := range sh.byLabel {
			out[k].byLabel[l] = slices.Clone(idxs)
		}
	}
	return out
}

// requireSameShards compares two shard lists element for element: every
// array, the shard's columns row by row, and its block table block by block
// — each block's base and columns, which a patched block must size exactly
// as a whole-shard build cuts it.
func requireSameShards(t *testing.T, where string, got, want []shard) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d shards, want %d", where, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		gc, wc := g.appendCols(nil), w.appendCols(nil)
		if g.lo != w.lo || !slices.Equal(g.ids, w.ids) || !slices.Equal(g.labels, w.labels) ||
			!slices.Equal(g.rowPtr, w.rowPtr) || !slices.Equal(gc, wc) || !reflect.DeepEqual(g.byLabel, w.byLabel) {
			t.Fatalf("%s: shard %d differs:\n got  lo=%d ids=%v labels=%v rowPtr=%v cols=%v byLabel=%v\n want lo=%d ids=%v labels=%v rowPtr=%v cols=%v byLabel=%v",
				where, k, g.lo, g.ids, g.labels, g.rowPtr, gc, g.byLabel, w.lo, w.ids, w.labels, w.rowPtr, wc, w.byLabel)
		}
		if len(g.cols) != len(w.cols) {
			t.Fatalf("%s: shard %d has %d column blocks, want %d", where, k, len(g.cols), len(w.cols))
		}
		for b := range w.cols {
			if g.cols[b].base != w.cols[b].base || !slices.Equal(g.cols[b].col, w.cols[b].col) {
				t.Fatalf("%s: shard %d block %d is base %d cols %v, want base %d cols %v",
					where, k, b, g.cols[b].base, g.cols[b].col, w.cols[b].base, w.cols[b].col)
			}
		}
	}
}

// TestRowLevelRefreezeMatrix drives random edge add/remove batches through the
// edge-only refreeze on one, two and sixteen shards: small batches, which are
// patched row by row (a dirty shard shares its ids and labels with the old
// snapshot), batches that dirty one row several times — an edge added and
// removed again, two edges at one vertex — and batches larger than the
// stale-row cut-off, which fall back to building whole shards. After every
// refreeze the snapshot must equal a from-scratch build element for element
// (ids, labels, rowPtr, column blocks and label partitions of every shard),
// SharesShard must be false for exactly the shards that own an endpoint of
// the batch, and the snapshot before the batch must read as it did.
func TestRowLevelRefreezeMatrix(t *testing.T) {
	const n = 256 // 32 stale-row marks, so 16 edge operations, are tracked
	for _, shards := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g := buildDenseGraph(n)
			opts := FreezeOptions{Shards: shards}
			prev := g.FreezeSharded(opts)
			state := uint64(shards)
			random := func(bound int) int {
				state = state*6364136223846793005 + 1442695040888963407
				return int(state>>33) % bound
			}
			patched, rebuilt := 0, 0
			for step := 0; step < 60; step++ {
				before := copyShards(prev)
				dirty := map[int]bool{}
				ops := 0
				toggle := func(u, v VertexID) {
					if u == v {
						return
					}
					if g.HasEdge(u, v) {
						g.MustRemoveEdge(u, v)
					} else {
						g.MustAddEdge(u, v)
					}
					ops++
					for _, w := range []VertexID{u, v} {
						i, _ := prev.IndexOf(w)
						dirty[prev.ShardOf(i)] = true
					}
				}
				size := []int{1, 3, 8, 20}[step%4]
				for ops < size {
					u, v := VertexID(random(n)), VertexID(random(n))
					toggle(u, v)
					if step%3 == 1 && ops+2 <= size {
						toggle(u, v)                                  // and back: the row is stale but unchanged
						toggle(u, VertexID((int(v)+1+random(n-1))%n)) // a third mark on u's row
					}
				}

				next := g.FreezeSharded(opts)
				where := fmt.Sprintf("step %d (%d edge operations)", step, ops)
				requireSameShards(t, where, next.shards, buildSnapshot(g, next.shardShift).shards)
				if next.NumEdges() != g.NumEdges() || next.NumVertices() != n {
					t.Fatalf("%s: totals %d/%d, want %d/%d", where, next.NumVertices(), next.NumEdges(), n, g.NumEdges())
				}
				if !slices.Equal(labelIndexes(next, 1), labelIndexes(buildSnapshot(g, next.shardShift), 1)) {
					t.Fatalf("%s: the concatenated label partitions differ from a fresh build's", where)
				}
				requireSameShards(t, where+": the snapshot before the batch", prev.shards, before)
				for k := 0; k < next.NumShards(); k++ {
					if shared := next.SharesShard(prev, k); shared == dirty[k] {
						t.Fatalf("%s: SharesShard(%d) = %v, but the batch dirtied shards %v", where, k, shared, dirty)
					}
					if !dirty[k] {
						continue
					}
					// Row-level patches share what an edge cannot change; a
					// whole-shard build allocates it afresh.
					sharesIDs := sameIDBacking(next.shards[k].ids, prev.shards[k].ids)
					if tracked := 2*ops <= n/8; sharesIDs != tracked {
						t.Fatalf("%s: dirty shard %d shares its ids with the old snapshot: %v, want %v", where, k, sharesIDs, tracked)
					}
					if sharesIDs {
						patched++
					} else {
						rebuilt++
					}
				}
				prev = next
			}
			if patched == 0 || rebuilt == 0 {
				t.Fatalf("matrix is vacuous: %d shards patched, %d rebuilt whole", patched, rebuilt)
			}
			g.DropSnapshots()
			requireSameShards(t, "after DropSnapshots", g.FreezeSharded(opts).shards, prev.shards)
		})
	}
}
