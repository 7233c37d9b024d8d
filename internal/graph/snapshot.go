package graph

import (
	"slices"
	"sort"
)

// Snapshot is an immutable, cache-friendly view of a Graph: adjacency in
// compressed sparse row (CSR) form over dense vertex indexes, per-index label
// and degree arrays, and a label-partitioned vertex index. All hot read paths
// (occurrence enumeration in particular) run on a Snapshot instead of the
// Graph's overlay maps: array indexing replaces map lookups, neighbor lists
// are contiguous, and the whole structure is safe for unsynchronized
// concurrent readers. A Graph holds its latest snapshot as its base, so the
// snapshot is the one full copy of the graph's data.
//
// A Snapshot is backed by one or more shards, each covering a contiguous
// range of dense indexes with its own independently allocated CSR arrays
// (adjacency, labels, label partition). Sharding bounds the size of any
// single allocation and lets parallel enumeration workers keep their hot
// loops inside one shard's arrays; neighbor references in the column arrays
// are global dense indexes, so cross-shard edges need no translation. All
// shards share one fixed vertex-count granularity, so routing an index to its
// shard is a single division — Neighbors, Degree and label lookups stay O(1)
// regardless of the shard count.
//
// Sharding also bounds the cost of mutation: the Graph tracks which shards a
// mutation dirties and a later Freeze rebuilds only those, sharing the clean
// shards' arrays with the previous snapshot (see FreezeSharded). Within a
// shard the columns are cut into 64-row blocks (see shard), so an edge-only
// refreeze of a dirty shard copies the blocks its stale rows lie in and
// shares the rest.
//
// Dense indexes are assigned in increasing VertexID order, so index order and
// ID order coincide and every per-row neighbor list is sorted. Obtain a
// Snapshot with Graph.Freeze or Graph.FreezeSharded; never mutate the slices
// it returns.
type Snapshot struct {
	name string

	n        int // total vertex count
	numEdges int
	// shardShift is the log2 of the dense-index granularity: shard k covers
	// indexes [k<<shardShift, min((k+1)<<shardShift, n)). Shard sizes are
	// always powers of two so that routing an index to its shard is a single
	// shift on the enumeration hot path rather than a division.
	shardShift uint
	shards     []shard

	// backing receives residency hints for shards whose arrays live outside
	// the Go heap (see NewExternalSnapshot); nil for heap snapshots.
	backing ShardBacking
	// external records that the shard arrays were handed in by
	// NewExternalSnapshot's caller, who may release them (the store unmaps
	// its segments on Close): FromSnapshot copies such a snapshot.
	external bool
}

// shard is one contiguous dense-index range of a Snapshot with its own CSR
// arrays. All slices are allocated per shard; column entries are global dense
// indexes (they may point into other shards).
type shard struct {
	lo int32 // first global dense index of this shard

	// ids maps local offset -> original VertexID, sorted ascending.
	ids []VertexID
	// labels[j] is the label of ids[j].
	labels []Label
	// rowPtr/cols are the shard-local CSR adjacency. rowPtr is flat: local
	// row j's columns are the shard's [rowPtr[j], rowPtr[j+1]), so a degree
	// is two loads. The columns themselves are cut into blocks of
	// 1<<blockShift rows, cols[j>>blockShift] holding local row j's (see
	// colBlock); each entry is a global dense index, every row sorted
	// ascending. A refreeze that patches a few rows gives the shard a fresh
	// rowPtr and block table but new columns only for the blocks holding
	// those rows: every other block is shared with the previous snapshot.
	rowPtr []int32
	cols   []colBlock
	// byLabel partitions this shard's global dense indexes by label, each
	// slice sorted ascending.
	byLabel map[Label][]int32
}

// blockShift is the log2 of the rows per column block. A patched block is
// copied whole, so the block bounds what a stale row costs beyond its own
// columns; the table, one entry per block, is what every patch allocates
// besides rowPtr.
const blockShift = 6

// colBlock is one block of a shard's column array: the columns of its rows,
// in row order, and base, the shard's rowPtr at its first row, so that local
// row j's neighbours are col[rowPtr[j]-base : rowPtr[j+1]-base]. A block's
// col is never written once its snapshot is published; blocks built
// together (a whole-shard build, a remap, a restored segment) are windows of
// one array. That array stays alive while any block still points into it,
// so a shard patched block by block holds up to about twice its columns (the
// array it was built over plus the blocks that replaced parts of it) until
// it is next built or remapped whole.
type colBlock struct {
	base int32
	col  []int32
}

// blockTable cuts the columns of a shard with the given row pointers, laid
// out as one array, into its block table.
func blockTable(rowPtr, col []int32) []colBlock {
	n := len(rowPtr) - 1
	cols := make([]colBlock, (n+1<<blockShift-1)>>blockShift) // ⌈n / 64⌉
	for b := range cols {
		lo, hi := rowPtr[b<<blockShift], rowPtr[min((b+1)<<blockShift, n)]
		cols[b] = colBlock{base: lo, col: col[lo:hi:hi]}
	}
	return cols
}

// numCols returns the number of column entries of the shard, the sum of its
// rows' degrees.
func (sh *shard) numCols() int { return int(sh.rowPtr[len(sh.rowPtr)-1]) }

// appendCols appends the shard's columns, row by row, to dst.
func (sh *shard) appendCols(dst []int32) []int32 {
	for _, b := range sh.cols {
		dst = append(dst, b.col...)
	}
	return dst
}

// DefaultShardSize is the auto-mode shard granularity: graphs with at most
// this many vertices freeze into a single shard, larger graphs are split into
// DefaultShardSize-vertex shards so no CSR allocation grows with the full
// graph.
const DefaultShardSize = 1 << 16

// FreezeOptions controls how Graph.FreezeSharded partitions the snapshot.
// Shard sizes are always rounded up to the next power of two so index-to-
// shard routing stays a single shift; the effective shard count is therefore
// at most the requested one.
type FreezeOptions struct {
	// Shards is the desired shard count; the vertex range is split into
	// contiguous equal-size shards (the last may be smaller) sized so that at
	// most Shards result. Zero means auto: a single shard up to
	// DefaultShardSize vertices, DefaultShardSize-vertex shards beyond that.
	// Ignored when ShardSize is set.
	Shards int
	// ShardSize fixes the number of vertices per shard directly (rounded up
	// to the next power of two) and takes precedence over Shards when
	// positive.
	ShardSize int
}

// resolveShardShift maps freeze options to the log2 of the per-shard vertex
// count for a graph with n vertices: the smallest power of two holding the
// requested shard size.
func resolveShardShift(opts FreezeOptions, n int) uint {
	size := 0
	switch {
	case opts.ShardSize > 0:
		size = opts.ShardSize
	case opts.Shards > 0:
		size = (n + opts.Shards - 1) / opts.Shards
	case n > DefaultShardSize:
		size = DefaultShardSize
	default:
		size = n
	}
	shift := uint(0)
	for 1<<shift < size {
		shift++
	}
	return shift
}

// snapEntry is one cached snapshot granularity together with the record of
// which shards mutations have dirtied since it was built. The dirty state is
// always relative to the entry's own snapshot: shard numbers refer to its
// partition, insert positions to its dense-index space. It never depends on
// the graph's base: a refreeze reads the current rows through the overlay
// and the base whichever snapshot the base is. A clean entry is one a
// mutation may rebase the graph onto (Graph.rebase); FromSnapshot seeds one.
type snapEntry struct {
	snap *Snapshot

	// dirty holds shards whose CSR arrays are stale because an incident
	// edge was added (AddEdge marks the shards owning both endpoints).
	dirty map[int]struct{}
	// suffixFrom, when >= 0, marks every shard >= suffixFrom dirty: a vertex
	// insert at dense position p shifts all indexes >= p, so the shards from
	// p's shard onward must be rebuilt. Appending at a new maximum VertexID
	// (the bulk-load idiom) keeps suffixFrom at the last shard — or past the
	// end when the last shard is exactly full — so at most one existing
	// shard is ever rebuilt per append.
	suffixFrom int
	// shifted records that at least one vertex insert landed strictly before
	// the snapshot's end, i.e. pre-existing dense indexes moved. Clean
	// shards' own ranges are unaffected (all inserts land at or after their
	// end, by construction of suffixFrom), but their columns hold
	// global references that may point into the shifted region and must be
	// remapped on refreeze. Pure appends never set this, which is what makes
	// append-at-max-ID the cheap path.
	shifted bool
	// grown records that the vertex set changed (an insert or a removal), so
	// the refreeze must re-derive the sorted ID list, shard count and totals
	// even if no pre-existing shard is dirty.
	grown bool
	// rows lists the dense indexes whose adjacency row an edge add or removal
	// made stale, in marking order and possibly repeated: what lets an
	// edge-only refreeze rebuild those rows and copy the rest of a dirty
	// shard (patchShard). It is kept independently of which shards are
	// dirty — a one-shard snapshot is saturated by its first mutation and is
	// exactly where copying the clean rows pays most — and only up to
	// maxStaleRows entries: past that rowsLost is set, the list is dropped
	// and marking is O(1) again, as a bulk load needs it to be.
	rows     []int32
	rowsLost bool
	// lastUse orders cache entries for least-recently-used eviction; it is
	// the Graph's snapClock value at the entry's most recent Freeze hit.
	lastUse uint64
}

// clean reports whether the entry's snapshot still matches the graph
// structure exactly (diagnostic renames are patched eagerly and never dirty
// an entry).
func (e *snapEntry) clean() bool {
	return len(e.dirty) == 0 && e.suffixFrom < 0 && !e.grown
}

// shardDirty reports whether shard k of the entry's snapshot must be rebuilt.
func (e *snapEntry) shardDirty(k int) bool {
	if e.suffixFrom >= 0 && k >= e.suffixFrom {
		return true
	}
	_, ok := e.dirty[k]
	return ok
}

// markShard marks a single shard's CSR arrays stale.
func (e *snapEntry) markShard(k int) {
	if e.dirty == nil {
		e.dirty = make(map[int]struct{})
	}
	e.dirty[k] = struct{}{}
}

// markEndpoint marks the shard owning vertex v dirty, and v's row stale,
// after an edge add or removal. A
// vertex unknown to the snapshot was added after the freeze, so its eventual
// shard already lies in the dirty suffix; if the bookkeeping ever disagrees,
// fall back to a full from-scratch rebuild (every shard dirty, identity and
// index reuse disabled) rather than serving a stale row.
func (e *snapEntry) markEndpoint(v VertexID) {
	if e.saturated() && !e.rowLevel() {
		return
	}
	if !e.beyondEnd(v) {
		if i, ok := e.snap.IndexOf(v); ok {
			e.markShard(e.snap.ShardOf(i))
			e.markRow(i)
			return
		}
	}
	// v was appended after the freeze; its eventual shard lies in the dirty
	// suffix, so there is nothing to record beyond the defensive fallback.
	if e.suffixFrom < 0 {
		e.suffixFrom = 0
		e.shifted = true
		e.grown = true
	}
}

// maxStaleRows is the number of stale-row marks an entry keeps before it
// gives up tracking rows: an eighth of the snapshot's vertices. The cut is on
// the safe side of the measured break-even: with that many marks spread over
// a random degree-6 graph — one in eight rows, so nearly every column block
// holds one and is copied — a patched refreeze took 0.14 ms against 0.26 ms
// for the whole-shard build on one 2 000-vertex shard and 9.5 against 14.7 ms
// on 16 shards of 4 096, and patching stayed ahead up to n/2 marks (0.58
// against 0.61, 36.5 against 38.4 ms; best of seven on a 2-core x86-64 box).
// What the cut bounds is the other side: a tracked mark costs two IndexOf
// searches (≈ 0.3 µs per AddEdge) and four bytes, which a bulk load against a
// warm cache pays for n/16 edges and then no more.
func (e *snapEntry) maxStaleRows() int { return e.snap.n / 8 }

// rowLevel reports whether the entry's staleness is still described row by
// row: only edges changed (a vertex insert or removal moves whole shards) and
// every stale row is on the list.
func (e *snapEntry) rowLevel() bool { return !e.grown && !e.rowsLost }

// markRow records that dense index i's adjacency row is stale.
func (e *snapEntry) markRow(i int32) {
	if !e.rowLevel() {
		return
	}
	if len(e.rows) >= e.maxStaleRows() {
		e.rows, e.rowsLost = nil, true
		return
	}
	e.rows = append(e.rows, i)
}

// beyondEnd reports in one array probe that v sorts after every snapshot
// vertex — the bulk-load idiom's common case, where neither the O(log n)
// IndexOf nor insertPos search has anything to find.
func (e *snapEntry) beyondEnd(v VertexID) bool {
	n := e.snap.n
	return n > 0 && v > e.snap.ID(int32(n-1))
}

// saturated reports that every shard of the entry's snapshot is already
// dirty, so further mutations have nothing left to record. This keeps the
// per-mutation bookkeeping O(1) on bulk loads against a warm cache: once a
// heavy edit burst has dirtied everything, AddEdge/AddVertex stop paying the
// per-entry binary searches and the cost profile matches the old
// invalidate-everything behavior.
func (e *snapEntry) saturated() bool {
	return (e.suffixFrom == 0 && e.shifted) || len(e.dirty) == len(e.snap.shards)
}

// markVertexInsert records a vertex insert at snapshot-relative dense
// position p (the number of snapshot vertices with a smaller ID). Positions
// computed against the entry's own snapshot can only under-count vertices
// added after the freeze, which moves the dirty suffix earlier — conservative
// and therefore safe.
func (e *snapEntry) markVertexInsert(p int32) {
	e.grown = true
	if int(p) < e.snap.n {
		e.shifted = true
	}
	sh := e.snap.ShardOf(p)
	if e.suffixFrom < 0 || sh < e.suffixFrom {
		e.suffixFrom = sh
	}
}

// markVertexRemove records a vertex removal against the entry's snapshot.
// Removing the snapshot's last dense index shifts nothing (the mirror of the
// append fast path), so pure remove-at-max-ID churn keeps clean shards
// reusable by reference; any earlier position shifts every surviving index
// after it and sets shifted. A vertex unknown to the snapshot was added after
// the freeze, so its shard already lies in the dirty suffix recorded by
// markVertexInsert; the defensive fallback mirrors markEndpoint.
func (e *snapEntry) markVertexRemove(v VertexID) {
	if e.suffixFrom == 0 && e.shifted {
		return // the whole snapshot is already dirty-with-shift
	}
	if i, ok := e.snap.IndexOf(v); ok {
		e.grown = true
		if int(i) < e.snap.n-1 {
			e.shifted = true
		}
		sh := e.snap.ShardOf(i)
		if e.suffixFrom < 0 || sh < e.suffixFrom {
			e.suffixFrom = sh
		}
		return
	}
	if e.suffixFrom < 0 {
		e.suffixFrom = 0
		e.shifted = true
		e.grown = true
	}
}

// Freeze returns the CSR snapshot of the graph with automatic sharding (a
// single shard up to DefaultShardSize vertices), building it on first use and
// caching it until the next mutation dirties part of it. The returned
// snapshot is immutable and safe for concurrent readers; concurrent Freeze
// calls are synchronized, but (as with all Graph readers) Freeze must not
// race with AddVertex/AddEdge.
func (g *Graph) Freeze() *Snapshot {
	return g.FreezeSharded(FreezeOptions{})
}

// maxCachedSnapshots bounds how many shard granularities of one graph stay
// cached at once; each entry is a complete CSR copy, so an unbounded cache
// would multiply memory on exactly the large graphs sharding targets. The
// least recently used granularity is evicted first.
const maxCachedSnapshots = 4

// FreezeSharded is Freeze with explicit control over the shard partition.
// Snapshots are cached per resolved shard size, so alternating callers with
// different options do not rebuild each other's snapshots.
//
// Mutations do not discard cached snapshots: each mutation marks the shards
// it touches dirty (see AddEdge, AddVertex) and the next freeze of that
// granularity rebuilds only those, sharing every clean shard's
// ids/labels/rowPtr/byLabel arrays and column blocks with the previous
// snapshot; the rows a mutation made stale come from the graph's overlay and
// every other row from its base (rebuildSnapshot), and a dirty shard keeps
// every column block none of them lies in (patchShard). Snapshots stay
// immutable throughout — readers holding a pre-mutation snapshot keep
// reading pre-mutation data.
// The snapshot a freeze installs is also what the graph's next mutation
// rebases onto; a freeze itself never rewrites the graph, because it runs
// beside other freezes.
//
// The CSR construction itself runs outside the cache lock, so a freeze at
// one granularity never blocks a concurrent freeze at another behind a full
// rebuild.
func (g *Graph) FreezeSharded(opts FreezeOptions) *Snapshot {
	shift := resolveShardShift(opts, g.NumVertices())
	g.snapMu.Lock()
	e := g.snaps[int(shift)]
	if e != nil && e.clean() {
		g.snapClock++
		e.lastUse = g.snapClock
		s := e.snap
		g.snapMu.Unlock()
		return s
	}
	// Capture the dirty state before releasing the lock: Freeze must not
	// race with mutations (SetName included — it patches entries in place),
	// so between here and the re-lock below only other freezes and
	// DropSnapshots can run, and neither mutates an entry in place —
	// freezes replace whole entries, drops discard the map.
	stale := e
	gen := g.snapGen
	g.snapMu.Unlock()

	var s *Snapshot
	if stale != nil {
		s = g.rebuildSnapshot(stale, shift)
	} else {
		s = buildSnapshot(g, shift)
	}

	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	if g.snapGen != gen {
		// A concurrent DropSnapshots asked for the cache memory back; honor
		// it by returning the built snapshot without reinstalling it.
		return s
	}
	if e2 := g.snaps[int(shift)]; e2 != nil && e2.clean() && e2 != stale {
		// A concurrent freeze of the same granularity won the race; keep its
		// snapshot so repeated freezes keep returning one identity.
		g.snapClock++
		e2.lastUse = g.snapClock
		return e2.snap
	}
	if g.snaps == nil {
		g.snaps = make(map[int]*snapEntry)
	}
	if _, ok := g.snaps[int(shift)]; !ok && len(g.snaps) >= maxCachedSnapshots {
		g.evictLRU()
	}
	g.snapClock++
	g.snaps[int(shift)] = &snapEntry{snap: s, suffixFrom: -1, lastUse: g.snapClock}
	return s
}

// evictLRU removes the least recently used cache entry. Caller holds snapMu.
func (g *Graph) evictLRU() {
	victim, found := 0, false
	var oldest uint64
	for k, e := range g.snaps {
		if !found || e.lastUse < oldest {
			victim, oldest, found = k, e.lastUse, true
		}
	}
	if found {
		delete(g.snaps, victim)
	}
}

// DropSnapshots discards every cached snapshot, releasing the CSR memory.
// The next Freeze rebuilds from scratch. Mutations do not need this —
// they dirty only the shards they touch — but long-lived graphs can use it
// to shed cache memory, and benchmarks use it to measure full rebuilds.
// Safe to call concurrently with Freeze: a freeze in flight across the drop
// returns its snapshot without repopulating the cache.
func (g *Graph) DropSnapshots() {
	g.snapMu.Lock()
	g.snaps = nil
	g.snapGen++
	g.snapMu.Unlock()
}

// noteVertexAdded records a successful AddVertex(v) against every cached
// snapshot: the shards from v's insert position onward are stale. Appends at
// a new maximum ID leave all fully clean shards untouched.
func (g *Graph) noteVertexAdded(v VertexID) {
	g.snapMu.Lock()
	for _, e := range g.snaps {
		if e.suffixFrom == 0 && e.shifted {
			continue // the whole snapshot is already dirty-with-shift
		}
		if e.beyondEnd(v) {
			e.markVertexInsert(int32(e.snap.n)) // append fast path
		} else {
			e.markVertexInsert(e.snap.insertPos(v))
		}
	}
	g.snapMu.Unlock()
}

// noteEdgeTouched records a successful AddEdge(u, v) or RemoveEdge(u, v)
// against every cached snapshot: only the shards owning the two endpoints are
// stale — dense index assignment, labels and every other shard's adjacency
// are unchanged. Both directions of the edge mutation dirty exactly the same
// shards, which is what lets removals ride the existing refreeze machinery.
func (g *Graph) noteEdgeTouched(u, v VertexID) {
	g.snapMu.Lock()
	for _, e := range g.snaps {
		e.markEndpoint(u)
		e.markEndpoint(v)
	}
	g.snapMu.Unlock()
}

// noteVertexRemoved records a successful RemoveVertex(v) against every cached
// snapshot: the shards from v's dense position onward are stale because every
// surviving index after it shifts down by one. Clean shards before that
// position can still hold column references into the shifted region, which is
// why a mid-range removal sets shifted (forcing the clean-shard remap on
// refreeze) exactly like a mid-range insert. A clean shard can never
// reference the removed vertex itself: any shard with an edge to v was
// dirtied by the cascade of incident-edge removals that precedes the vertex
// removal.
func (g *Graph) noteVertexRemoved(v VertexID) {
	g.snapMu.Lock()
	for _, e := range g.snaps {
		e.markVertexRemove(v)
	}
	g.snapMu.Unlock()
}

// renameSnapshots patches the diagnostic name of every cached snapshot after
// SetName. The CSR structure is untouched, so instead of dirtying anything
// each entry gets a shallow copy sharing all shard arrays (snapshots handed
// to earlier callers stay immutable and keep the old name).
func (g *Graph) renameSnapshots(name string) {
	g.snapMu.Lock()
	var base *Snapshot
	if g.base != nil {
		base = g.base.withName(name)
	}
	for _, e := range g.snaps {
		if e.snap == g.base {
			e.snap = base // the base keeps its identity with its entry
		} else {
			e.snap = e.snap.withName(name)
		}
	}
	g.base = base
	g.snapMu.Unlock()
}

// withName returns a copy of s differing only in name, sharing every shard
// array.
func (s *Snapshot) withName(name string) *Snapshot {
	c := *s
	c.name = name
	return &c
}

// insertPos returns the dense position a vertex with ID v would occupy in
// the snapshot's index space: the number of snapshot vertices with a smaller
// ID.
func (s *Snapshot) insertPos(v VertexID) int32 {
	return int32(sort.Search(s.n, func(k int) bool { return s.ID(int32(k)) >= v }))
}

// searchIndex returns the dense index of v in the sorted ID slice backing a
// snapshot under construction.
func searchIndex(ids []VertexID, v VertexID) int32 {
	return int32(sort.Search(len(ids), func(i int) bool { return ids[i] >= v }))
}

// buildSnapshot constructs the sharded CSR form of g with 1<<shardShift
// vertices per shard, building every shard from scratch.
func buildSnapshot(g *Graph, shardShift uint) *Snapshot {
	s := newShellSnapshot(g, shardShift, g.NumVertices())
	src := g.source()
	for k := range s.shards {
		g.buildShard(s, k, &src)
	}
	return s
}

// newShellSnapshot allocates a Snapshot with totals and shard slots but no
// shard contents yet.
func newShellSnapshot(g *Graph, shardShift uint, n int) *Snapshot {
	shardSize := 1 << shardShift
	numShards := 0
	if n > 0 {
		numShards = (n + shardSize - 1) / shardSize
	}
	return &Snapshot{
		name:       g.name,
		n:          n,
		numEdges:   g.NumEdges(),
		shardShift: shardShift,
		shards:     make([]shard, numShards),
	}
}

// freezeSource is the graph's vertex list in ID order — the dense index
// space of the snapshot a freeze builds — and how each row is translated
// into it.
type freezeSource struct {
	ids []VertexID
	// fromBase[i] is the base index of ids[i] when it is a live base vertex,
	// -1 otherwise, and toNew[b] the new index of base index b, -1 for a
	// removed vertex: a base row is carried over through toNew, which keeps
	// it sorted. Both are nil without a base.
	fromBase, toNew []int32
	// indexOf resolves a neighbour in an overlay row to its new index.
	indexOf func(VertexID) int32
}

// source lays out the graph's current vertices for a freeze. Without a
// base every row is an overlay row, and an ID map resolves their neighbours
// as a bulk build needs. With one, the new ID list is one merge of the base's
// surviving IDs with the overlay's sorted vertices, a base row needs no
// lookup at all, and an overlay row's neighbours are binary-searched in the
// new ID list: no ID map is built, whatever the batch did.
func (g *Graph) source() freezeSource {
	if g.base == nil {
		ids := g.SortedVertices()
		indexOf := make(map[VertexID]int32, len(ids))
		for i, v := range ids {
			indexOf[v] = int32(i)
		}
		return freezeSource{ids: ids, indexOf: func(v VertexID) int32 { return indexOf[v] }}
	}
	added := sortedKeys(g.labels)
	gone := sortedKeys(g.goneVertices)
	n := g.NumVertices()
	src := freezeSource{ids: make([]VertexID, 0, n), fromBase: make([]int32, 0, n), toNew: make([]int32, g.base.n)}
	emit := func(v VertexID, b int32) {
		src.ids = append(src.ids, v)
		src.fromBase = append(src.fromBase, b)
	}
	for b := range int32(g.base.n) {
		v := g.base.ID(b)
		for len(added) > 0 && added[0] < v {
			emit(added[0], -1)
			added = added[1:]
		}
		if len(gone) > 0 && gone[0] == v {
			// Removed, and maybe added again: then it comes from added.
			gone = gone[1:]
			src.toNew[b] = -1
			continue
		}
		src.toNew[b] = int32(len(src.ids))
		emit(v, b)
	}
	for _, v := range added {
		emit(v, -1)
	}
	src.indexOf = func(v VertexID) int32 { return searchIndex(src.ids, v) }
	return src
}

// sortedKeys returns the vertices keying m in increasing order.
func sortedKeys[T any](m map[VertexID]T) []VertexID {
	out := make([]VertexID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// buildShard fills shard k of the snapshot under construction: a vertex
// with an overlay row has it translated through src.indexOf and sorted, a
// base vertex without one has its base row carried over through src.toNew.
// The columns are laid out as one array and cut into blocks at the end.
func (g *Graph) buildShard(s *Snapshot, k int, src *freezeSource) {
	shardSize := 1 << s.shardShift
	lo := k * shardSize
	hi := min(lo+shardSize, s.n)
	sh := &s.shards[k]
	sh.lo = int32(lo)
	sh.ids = slices.Clone(src.ids[lo:hi])
	sh.labels = make([]Label, hi-lo)
	sh.rowPtr = make([]int32, hi-lo+1)
	sh.byLabel = make(map[Label][]int32)
	var col []int32
	for i := lo; i < hi; i++ {
		v := src.ids[i]
		b := int32(-1)
		if src.fromBase != nil {
			b = src.fromBase[i]
		}
		var l Label
		if b >= 0 {
			l = g.base.LabelAt(b)
		} else {
			l = g.labels[v]
		}
		sh.labels[i-lo] = l
		sh.byLabel[l] = append(sh.byLabel[l], int32(i))
		if row, ok := g.adjacency[v]; ok || b < 0 {
			col = appendRow(col, row, src.indexOf)
		} else {
			for _, c := range g.base.NeighborsAt(b) {
				col = append(col, src.toNew[c])
			}
		}
		sh.rowPtr[i-lo+1] = int32(len(col))
	}
	sh.cols = blockTable(sh.rowPtr, col)
	g.countShardBuild()
}

// countShardBuild counts one shard built or patched, for the graph's tests
// and for repro_graph_shard_builds_total.
func (g *Graph) countShardBuild() {
	g.shardBuilds.Add(1)
	mShardBuilds.Inc()
}

// appendRow appends one CSR row to col: the dense indexes of the given
// neighbors, sorted ascending.
func appendRow(col []int32, neighbors []VertexID, lookup func(VertexID) int32) []int32 {
	start := len(col)
	for _, w := range neighbors {
		col = append(col, lookup(w))
	}
	slices.Sort(col[start:])
	return col
}

// appendCurrentRow appends v's current row to col, its neighbours resolved
// by lookup and sorted: the overlay row when v has one, else the base row.
func (g *Graph) appendCurrentRow(col []int32, v VertexID, lookup func(VertexID) int32) []int32 {
	if row, ok := g.adjacency[v]; ok {
		return appendRow(col, row, lookup)
	}
	start := len(col)
	i, _ := g.baseIndex(v)
	for _, c := range g.base.NeighborsAt(i) {
		col = append(col, lookup(g.base.ID(c)))
	}
	slices.Sort(col[start:])
	return col
}

// rebuildSnapshot produces a fresh Snapshot for the entry's granularity,
// rebuilding exactly the dirty shards and sharing every clean shard with the
// previous snapshot. Shard geometry is fixed per granularity, so old shard k
// and new shard k cover the same dense-index range. Dirty shards take the
// rows mutations made stale from the overlay and every other row from the
// base (buildShard, patchShard).
//
// Clean shards are reused by reference. The one exception is their columns
// when a mid-range vertex insert or removal shifted global indexes
// (entry.shifted): the shard's own vertex range is untouched — every insert
// landed at or after its end — but its neighbor references may point past
// the insert position, so they are moved through each old index's new
// position into one fresh array and a fresh block table, the shard keeping
// its rowPtr: through the base's toNew when the entry's snapshot is the
// base, as it is whenever the graph is frozen at one granularity, else by
// resolving each old index's ID in the new list. Neighbor lists stay sorted
// under the remap because inserts and removals preserve the relative order
// of surviving indexes. A shard without a column has nothing to remap.
func (g *Graph) rebuildSnapshot(e *snapEntry, shardShift uint) *Snapshot {
	old := e.snap
	s := newShellSnapshot(g, shardShift, g.NumVertices())
	if e.rowLevel() {
		// Only edges changed, and every stale row is on the list: the vertex
		// set, every dense index, every label and every label partition are
		// the old snapshot's, so dirty shards are patched row by row. The
		// entry is shared with any concurrent freeze of this granularity, so
		// the list is sorted in a copy.
		stale := slices.Clone(e.rows)
		slices.Sort(stale)
		stale = slices.Compact(stale)
		for k := range s.shards {
			if e.shardDirty(k) {
				s.shards[k] = g.patchShard(old, &old.shards[k], stale)
			} else {
				s.shards[k] = old.shards[k]
			}
		}
		return s
	}
	src := g.source()
	for k := range s.shards {
		if k < len(old.shards) && !e.shardDirty(k) {
			reused := old.shards[k]
			if e.shifted && reused.numCols() > 0 {
				col := make([]int32, 0, reused.numCols())
				for _, b := range reused.cols {
					for _, c := range b.col {
						if old == g.base {
							col = append(col, src.toNew[c])
						} else {
							col = append(col, src.indexOf(old.ID(c)))
						}
					}
				}
				reused.cols = blockTable(reused.rowPtr, col)
			}
			s.shards[k] = reused
			continue
		}
		g.buildShard(s, k, &src)
	}
	return s
}

// patchShard returns the dirty shard osh of snapshot old with its stale rows
// brought up to date; stale is the snapshot's sorted list of them, of which
// the shard's are one run. The new shard shares ids, labels and byLabel with
// the old one by reference — an edge changes none of them — and gets a fresh
// rowPtr and a fresh block table, fresh even where their contents repeat the
// old ones, because array identity is how SharesShard, and through it the
// store's incremental rewrite, tells a shard whose bytes changed from one
// whose bytes did not. A block without a stale row keeps its columns by
// reference, only its base moved by how far the blocks before it grew or
// shrank; a block with one gets a new column array, sized for its rows'
// current degrees, into which its clean rows are copied a run at a time and
// its stale rows re-derived from the overlay rows the edge mutations left
// (appendCurrentRow), whose vertices all exist in old. A four-edge update
// therefore costs its eight rows, the blocks around them, and one rowPtr and
// block table per dirty shard, not the sort of every row of two shards nor a
// copy of their columns.
func (g *Graph) patchShard(old *Snapshot, osh *shard, stale []int32) shard {
	from, _ := slices.BinarySearch(stale, osh.lo)
	to, _ := slices.BinarySearch(stale, osh.lo+int32(len(osh.ids)))
	stale = stale[from:to]
	n := int32(len(osh.ids))
	rowPtr, cols := make([]int32, n+1), make([]colBlock, len(osh.cols))
	lookup := func(v VertexID) int32 {
		i, _ := old.IndexOf(v)
		return i
	}
	for b := range cols {
		ob := &osh.cols[b]
		lo, hi := int32(b)<<blockShift, min(int32(b+1)<<blockShift, n)
		base := rowPtr[lo]
		// The block's stale rows are stale[:run].
		run := 0
		for run < len(stale) && stale[run]-osh.lo < hi {
			run++
		}
		if run == 0 {
			for j := lo + 1; j <= hi; j++ {
				rowPtr[j] = osh.rowPtr[j] - ob.base + base
			}
			cols[b] = colBlock{base: base, col: ob.col}
			continue
		}
		size := len(ob.col)
		for _, i := range stale[:run] {
			j := i - osh.lo
			size += g.Degree(osh.ids[j]) - int(osh.rowPtr[j+1]-osh.rowPtr[j])
		}
		col := make([]int32, 0, size)
		// copyClean carries local rows [a, c) over: their columns in one
		// copy, their row pointers moved by how far the rebuilt rows before
		// them have shifted the columns.
		copyClean := func(a, c int32) {
			shift := base + int32(len(col)) - osh.rowPtr[a]
			col = append(col, ob.col[osh.rowPtr[a]-ob.base:osh.rowPtr[c]-ob.base]...)
			for j := a + 1; j <= c; j++ {
				rowPtr[j] = osh.rowPtr[j] + shift
			}
		}
		next := lo // first local row of the block not yet written
		for _, i := range stale[:run] {
			j := i - osh.lo
			copyClean(next, j)
			col = g.appendCurrentRow(col, osh.ids[j], lookup)
			rowPtr[j+1] = base + int32(len(col))
			next = j + 1
		}
		copyClean(next, hi)
		cols[b] = colBlock{base: base, col: col}
		stale = stale[run:]
	}
	g.countShardBuild()
	return shard{lo: osh.lo, ids: osh.ids, labels: osh.labels, byLabel: osh.byLabel, rowPtr: rowPtr, cols: cols}
}

// shardFor routes a global dense index to its owning shard.
func (s *Snapshot) shardFor(i int32) *shard {
	return &s.shards[i>>s.shardShift]
}

// Name returns the name of the frozen graph.
func (s *Snapshot) Name() string { return s.name }

// NumVertices returns |V|.
func (s *Snapshot) NumVertices() int { return s.n }

// NumEdges returns |E|.
func (s *Snapshot) NumEdges() int { return s.numEdges }

// NumShards returns the number of CSR shards backing the snapshot.
func (s *Snapshot) NumShards() int { return len(s.shards) }

// ShardSize returns the dense-index granularity of the shard partition
// (always a power of two): shard k covers indexes
// [k*ShardSize(), min((k+1)*ShardSize(), NumVertices())).
func (s *Snapshot) ShardSize() int { return 1 << s.shardShift }

// ShardOf returns the shard number owning dense index i.
func (s *Snapshot) ShardOf(i int32) int { return int(i >> s.shardShift) }

// ShardRange returns the half-open global dense-index range [lo, hi) covered
// by shard k.
func (s *Snapshot) ShardRange(k int) (lo, hi int32) {
	sh := &s.shards[k]
	return sh.lo, sh.lo + int32(len(sh.ids))
}

// ShardIndexesWithLabel returns the sorted global dense indexes of shard k's
// vertices carrying the given label, as a shared slice. Callers must not
// modify it.
func (s *Snapshot) ShardIndexesWithLabel(k int, l Label) []int32 {
	return s.shards[k].byLabel[l]
}

// ID returns the VertexID of dense index i.
func (s *Snapshot) ID(i int32) VertexID {
	sh := s.shardFor(i)
	return sh.ids[i-sh.lo]
}

// IndexOf returns the dense index of vertex v. The second return value
// reports whether the vertex exists.
func (s *Snapshot) IndexOf(v VertexID) (int32, bool) {
	// IDs ascend across shards as well as within one, so the owning shard is
	// the last whose first ID is not above v; the rest is one binary search
	// in that shard's own ids array, with no per-probe routing.
	k := sort.Search(len(s.shards), func(k int) bool {
		ids := s.shards[k].ids
		return len(ids) == 0 || ids[0] > v
	}) - 1
	if k < 0 {
		return 0, false
	}
	sh := &s.shards[k]
	j, ok := slices.BinarySearch(sh.ids, v)
	if !ok {
		return 0, false
	}
	return sh.lo + int32(j), true
}

// LabelAt returns the label of dense index i.
//
//gvet:hotpath
func (s *Snapshot) LabelAt(i int32) Label {
	sh := s.shardFor(i)
	return sh.labels[i-sh.lo]
}

// DegreeAt returns the degree of dense index i.
//
//gvet:hotpath
func (s *Snapshot) DegreeAt(i int32) int {
	sh := s.shardFor(i)
	j := i - sh.lo
	return int(sh.rowPtr[j+1] - sh.rowPtr[j])
}

// NeighborsAt returns the sorted dense-index neighbor list of index i as a
// shared sub-slice of the owning shard's CSR column array. Callers must not
// modify it.
//
//gvet:hotpath
func (s *Snapshot) NeighborsAt(i int32) []int32 {
	sh := s.shardFor(i)
	j := i - sh.lo
	b := &sh.cols[j>>blockShift]
	return b.col[sh.rowPtr[j]-b.base : sh.rowPtr[j+1]-b.base]
}

// HasEdgeAt reports whether the undirected edge between dense indexes u and v
// is present, by binary search in the shorter of the two neighbor rows.
func (s *Snapshot) HasEdgeAt(u, v int32) bool {
	if s.DegreeAt(v) < s.DegreeAt(u) {
		u, v = v, u
	}
	row := s.NeighborsAt(u)
	k := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return k < len(row) && row[k] == v
}

// Degree returns the degree of vertex v (0 if the vertex does not exist).
func (s *Snapshot) Degree(v VertexID) int {
	i, ok := s.IndexOf(v)
	if !ok {
		return 0
	}
	return s.DegreeAt(i)
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (s *Snapshot) HasEdge(u, v VertexID) bool {
	iu, ok := s.IndexOf(u)
	if !ok {
		return false
	}
	iv, ok := s.IndexOf(v)
	if !ok {
		return false
	}
	return s.HasEdgeAt(iu, iv)
}

// Neighbors returns the sorted VertexID neighbor list of v as a fresh slice.
func (s *Snapshot) Neighbors(v VertexID) []VertexID {
	i, ok := s.IndexOf(v)
	if !ok {
		return nil
	}
	row := s.NeighborsAt(i)
	out := make([]VertexID, len(row))
	for k, j := range row {
		out[k] = s.ID(j)
	}
	return out
}
