package graph

import "slices"

// FromSnapshot returns a mutable Graph with exactly the vertices, labels and
// edges of a frozen snapshot — the inverse of Freeze, used by the durable
// store to reopen a persisted graph for in-place mutation. The graph wraps
// the snapshot as its base with an empty overlay (see Graph) instead of
// replaying it: a heap snapshot is adopted as it is, and one over external
// arrays (NewExternalSnapshot, the store's mmapped segments) is first copied
// shard by shard onto the heap, because its owner may unmap the arrays as
// soon as this returns. Either way the graph's snapshot cache is seeded with
// that heap snapshot as a clean entry at its own shard size, so a freeze at
// that granularity builds nothing and returns it. The graph's insertion
// order is the snapshot's, increasing IDs.
func FromSnapshot(snap *Snapshot) *Graph {
	if snap.external {
		snap = snap.heapCopy()
	}
	g := &Graph{base: snap, name: snap.name, order: make([]VertexID, 0, snap.n)}
	for k := range snap.shards {
		g.order = append(g.order, snap.shards[k].ids...)
	}
	g.snapClock = 1
	g.snaps = map[int]*snapEntry{int(snap.shardShift): {snap: snap, suffixFrom: -1, lastUse: g.snapClock}}
	return g
}

// heapCopy returns a snapshot with the contents of s in fresh heap arrays,
// each shard's columns laid out as one, and no backing.
func (s *Snapshot) heapCopy() *Snapshot {
	c := &Snapshot{name: s.name, n: s.n, numEdges: s.numEdges, shardShift: s.shardShift, shards: make([]shard, len(s.shards))}
	for k := range s.shards {
		sh := &s.shards[k]
		byLabel := make(map[Label][]int32, len(sh.byLabel))
		for l, idx := range sh.byLabel {
			byLabel[l] = slices.Clone(idx)
		}
		rowPtr := slices.Clone(sh.rowPtr)
		c.shards[k] = shard{lo: sh.lo, ids: slices.Clone(sh.ids), labels: slices.Clone(sh.labels),
			rowPtr: rowPtr, cols: blockTable(rowPtr, sh.appendCols(make([]int32, 0, sh.numCols()))), byLabel: byLabel}
	}
	return c
}

// SharesShard reports whether shard k of s is backed by the same CSR arrays
// as shard k of prev — the identity the incremental refreeze establishes for
// clean shards, which the store's incremental rewrite uses to skip segments
// whose bytes cannot have changed. Array identity (not content equality) is
// the test, over ids, labels, rowPtr and the column block table: a patched
// or rebuilt shard always allocates a fresh rowPtr and table, and a clean
// shard whose columns were remapped after a shifting insert or removal keeps
// its rowPtr but got a fresh table precisely because its contents changed.
// A patched shard shares most of its column blocks with its parent; the
// table, not the blocks, is what tells it apart.
func (s *Snapshot) SharesShard(prev *Snapshot, k int) bool {
	if prev == nil || k >= len(s.shards) || k >= len(prev.shards) {
		return false
	}
	a, b := &s.shards[k], &prev.shards[k]
	return a.lo == b.lo &&
		sameBacking(len(a.ids), len(b.ids), func() bool { return &a.ids[0] == &b.ids[0] }) &&
		sameBacking(len(a.labels), len(b.labels), func() bool { return &a.labels[0] == &b.labels[0] }) &&
		sameBacking(len(a.rowPtr), len(b.rowPtr), func() bool { return &a.rowPtr[0] == &b.rowPtr[0] }) &&
		sameBacking(len(a.cols), len(b.cols), func() bool { return &a.cols[0] == &b.cols[0] })
}

// sameBacking reports whether two slices of equal length share their first
// element (and therefore, for the append-free arrays built by the freezer,
// their whole backing). Two empty slices are trivially identical.
func sameBacking(la, lb int, sameFirst func() bool) bool {
	if la != lb {
		return false
	}
	if la == 0 {
		return true
	}
	return sameFirst()
}
