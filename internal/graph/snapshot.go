package graph

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Snapshot is an immutable, cache-friendly view of a Graph: adjacency in
// compressed sparse row (CSR) form over dense vertex indexes, per-index label
// and degree arrays, and a label-partitioned vertex index. All hot read paths
// (occurrence enumeration in particular) run on a Snapshot instead of the
// Graph's mutable maps: array indexing replaces map lookups, neighbor lists
// are contiguous, and the whole structure is safe for unsynchronized
// concurrent readers.
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
// shards' arrays with the previous snapshot (see FreezeSharded).
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

	// byLabel is the thin cross-shard index: the global sorted dense-index
	// list per label, concatenated from the per-shard partitions on first
	// use so IndexesWithLabel stays a single O(1) map lookup afterwards.
	// Built lazily because the enumeration hot path works from the per-shard
	// partitions and never needs the full-graph concatenation. Stored behind
	// an atomic pointer (instead of a sync.Once) so incremental refreezes can
	// seed a fresh Snapshot with a mostly reused index.
	labelMu sync.Mutex
	byLabel atomic.Pointer[map[Label][]int32]

	// adjBits is the lazily built table of high-degree adjacency bitmap rows
	// (see AdjacencyRow), behind an atomic pointer under the same discipline
	// as byLabel.
	bitsMu  sync.Mutex
	adjBits atomic.Pointer[adjacencyBitsets]

	// backing receives residency hints for shards whose arrays live outside
	// the Go heap (see NewExternalSnapshot); nil for heap snapshots.
	backing ShardBacking
}

// shard is one contiguous dense-index range of a Snapshot with its own CSR
// arrays. All slices are allocated per shard; colIdx entries are global dense
// indexes (they may point into other shards).
type shard struct {
	lo int32 // first global dense index of this shard

	// ids maps local offset -> original VertexID, sorted ascending.
	ids []VertexID
	// labels[j] is the label of ids[j].
	labels []Label
	// rowPtr/colIdx are the shard-local CSR adjacency: the neighbors of
	// global index i in this shard are colIdx[rowPtr[i-lo]:rowPtr[i-lo+1]],
	// each a global dense index, sorted ascending.
	rowPtr []int32
	colIdx []int32
	// byLabel partitions this shard's global dense indexes by label, each
	// slice sorted ascending.
	byLabel map[Label][]int32
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
// partition, insert positions to its dense-index space.
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
	// end, by construction of suffixFrom), but their colIdx arrays hold
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
// a random degree-6 graph a patched refreeze took 0.21 ms against 0.49 ms for
// the whole-shard build on one 2 000-vertex shard and 18 against 72 ms on 16
// shards of 4 096, and patching stayed ahead until about n/2 marks (0.81
// against 0.65, 65 against 74 ms). What the cut bounds is the other side: a
// tracked mark costs two IndexOf searches (≈ 0.3 µs per AddEdge) and four
// bytes, which a bulk load against a warm cache pays for n/16 edges and then
// no more.
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
// Mutations no longer discard cached snapshots wholesale: each mutation marks
// the shards it touches dirty (see AddEdge, AddVertex) and the next freeze of
// that granularity rebuilds only those, sharing every clean shard's
// ids/labels/rowPtr/colIdx/byLabel arrays with the previous snapshot.
// Snapshots stay immutable throughout — readers holding a pre-mutation
// snapshot keep reading pre-mutation data.
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
// position can still hold colIdx references into the shifted region, which is
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
	for _, e := range g.snaps {
		e.snap = e.snap.withName(name)
	}
	g.snapMu.Unlock()
}

// withName returns a copy of s differing only in name, sharing every shard
// array and any materialized cross-shard label index.
func (s *Snapshot) withName(name string) *Snapshot {
	c := &Snapshot{
		name:       name,
		n:          s.n,
		numEdges:   s.numEdges,
		shardShift: s.shardShift,
		shards:     s.shards,
		backing:    s.backing,
	}
	if bl := s.byLabel.Load(); bl != nil {
		c.byLabel.Store(bl)
	}
	if bs := s.adjBits.Load(); bs != nil {
		c.adjBits.Store(bs)
	}
	return c
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
	n := g.NumVertices()
	s := newShellSnapshot(g, shardShift, n)
	ids := g.SortedVertices()
	indexOf := make(map[VertexID]int32, n)
	for i, v := range ids {
		indexOf[v] = int32(i)
	}
	lookup := func(v VertexID) int32 { return indexOf[v] }
	for k := range s.shards {
		g.buildShard(s, k, ids, lookup)
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

// buildShard fills shard k of the snapshot under construction from the
// graph's adjacency maps. lookup resolves a VertexID to its new global dense
// index.
func (g *Graph) buildShard(s *Snapshot, k int, ids []VertexID, lookup func(VertexID) int32) {
	shardSize := 1 << s.shardShift
	lo := k * shardSize
	hi := lo + shardSize
	if hi > s.n {
		hi = s.n
	}
	sh := &s.shards[k]
	sh.lo = int32(lo)
	sh.ids = make([]VertexID, hi-lo)
	copy(sh.ids, ids[lo:hi])
	sh.labels = make([]Label, hi-lo)
	sh.rowPtr = make([]int32, hi-lo+1)
	sh.colIdx = nil
	sh.byLabel = make(map[Label][]int32)
	for i := lo; i < hi; i++ {
		v := ids[i]
		l := g.labels[v]
		sh.labels[i-lo] = l
		sh.byLabel[l] = append(sh.byLabel[l], int32(i))
		sh.colIdx = appendRow(sh.colIdx, g.adjacency[v], lookup)
		sh.rowPtr[i-lo+1] = int32(len(sh.colIdx))
	}
	g.shardBuilds.Add(1)
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

// rebuildSnapshot produces a fresh Snapshot for the entry's granularity,
// rebuilding exactly the dirty shards and sharing every clean shard with the
// previous snapshot. Shard geometry is fixed per granularity, so old shard k
// and new shard k cover the same dense-index range.
//
// Clean shards are reused by reference. The one exception is their colIdx
// array when a mid-range vertex insert shifted global indexes (entry.shifted):
// the shard's own vertex range is untouched — every insert landed at or after
// its end — but its neighbor references may point past the insert position,
// so they are remapped through the surviving vertices' new positions (a copy
// and O(log n) searches, still far cheaper than re-sorting adjacency).
// Neighbor lists stay sorted under the remap because inserts preserve the
// relative order of surviving indexes.
func (g *Graph) rebuildSnapshot(e *snapEntry, shardShift uint) *Snapshot {
	old := e.snap
	n := g.NumVertices()
	s := newShellSnapshot(g, shardShift, n)
	if e.rowLevel() {
		// Only edges changed, and every stale row is on the list: the vertex
		// set, every dense index, every label and every label partition are
		// the old snapshot's, so dirty shards are patched row by row and the
		// cross-shard label index carries over as it is. The entry is shared
		// with any concurrent freeze of this granularity, so the list is
		// sorted in a copy.
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
		s.seedLabelIndex(old, e, nil)
		return s
	}
	var ids []VertexID
	if e.grown {
		ids = g.SortedVertices()
	} else {
		// Edge-only staleness: the vertex set is the old snapshot's, so the
		// sorted ID list is just its shards' id arrays concatenated — an
		// O(n) copy instead of an O(n log n) re-sort.
		ids = make([]VertexID, n)
		for k := range old.shards {
			copy(ids[old.shards[k].lo:], old.shards[k].ids)
		}
	}
	// Resolving a neighbor's new dense index costs O(log n) by binary search
	// with zero setup, or O(1) through a map that costs O(n) to fill. Binary
	// search wins for the common trickle-update case (a bounded number of
	// dirty shards); when most of the snapshot's neighbor entries must be
	// resolved anyway — many dirty shards, or a shifted insert forcing every
	// clean shard's colIdx through the remap — fall back to the map so the
	// incremental path is never asymptotically worse than a full build.
	oldShards := len(old.shards)
	needBuild := 0
	for k := range s.shards {
		if k >= oldShards || e.shardDirty(k) {
			needBuild++
		}
	}
	var lookup func(VertexID) int32
	if e.shifted || 2*needBuild >= len(s.shards) {
		indexOf := make(map[VertexID]int32, n)
		for i, v := range ids {
			indexOf[v] = int32(i)
		}
		lookup = func(v VertexID) int32 { return indexOf[v] }
	} else {
		lookup = func(v VertexID) int32 { return searchIndex(ids, v) }
	}

	var rebuiltShards []int
	for k := range s.shards {
		if k < oldShards && !e.shardDirty(k) {
			reused := old.shards[k]
			if e.shifted {
				col := make([]int32, len(reused.colIdx))
				for i, c := range reused.colIdx {
					col[i] = lookup(old.ID(c))
				}
				reused.colIdx = col
			}
			s.shards[k] = reused
			continue
		}
		g.buildShard(s, k, ids, lookup)
		rebuiltShards = append(rebuiltShards, k)
	}

	s.seedLabelIndex(old, e, rebuiltShards)
	return s
}

// patchShard returns the dirty shard osh of snapshot old with its stale rows
// brought up to date; stale is the snapshot's sorted list of them, of which
// the shard's are one run. The new shard shares ids, labels and byLabel with
// the old one by reference — an edge changes none of them — and gets a fresh
// rowPtr and colIdx, fresh even where their contents repeat the old ones,
// because array identity is how SharesShard, and through it the store's
// incremental rewrite, tells a shard whose bytes changed from one whose bytes
// did not. Clean rows are copied from the old colIdx a run at a time; only
// the stale rows are re-derived from the graph's adjacency lists, whose
// vertices all exist in old. A four-edge update therefore costs its eight
// rows and two shard-sized copies, not the sort of every row of two shards.
func (g *Graph) patchShard(old *Snapshot, osh *shard, stale []int32) shard {
	from, _ := slices.BinarySearch(stale, osh.lo)
	to, _ := slices.BinarySearch(stale, osh.lo+int32(len(osh.ids)))
	stale = stale[from:to]
	size := len(osh.colIdx)
	for _, i := range stale {
		j := i - osh.lo
		size += len(g.adjacency[osh.ids[j]]) - int(osh.rowPtr[j+1]-osh.rowPtr[j])
	}
	rowPtr, colIdx := make([]int32, len(osh.rowPtr)), make([]int32, 0, size)
	// copyClean carries local rows [a, b) over: their columns in one copy,
	// their row pointers moved by how far the rebuilt rows before them have
	// shifted the columns.
	copyClean := func(a, b int32) {
		shift := int32(len(colIdx)) - osh.rowPtr[a]
		colIdx = append(colIdx, osh.colIdx[osh.rowPtr[a]:osh.rowPtr[b]]...)
		for j := a + 1; j <= b; j++ {
			rowPtr[j] = osh.rowPtr[j] + shift
		}
	}
	lookup := func(v VertexID) int32 {
		i, _ := old.IndexOf(v)
		return i
	}
	next := int32(0) // first local row not yet written
	for _, i := range stale {
		j := i - osh.lo
		copyClean(next, j)
		colIdx = appendRow(colIdx, g.adjacency[osh.ids[j]], lookup)
		rowPtr[j+1] = int32(len(colIdx))
		next = j + 1
	}
	copyClean(next, int32(len(osh.ids)))
	g.shardBuilds.Add(1)
	return shard{lo: osh.lo, ids: osh.ids, labels: osh.labels, byLabel: osh.byLabel, rowPtr: rowPtr, colIdx: colIdx}
}

// seedLabelIndex carries the materialized cross-shard label index across an
// incremental refreeze when that is sound: labels absent from every rebuilt
// shard keep their old concatenation by reference, labels present in a
// rebuilt shard are re-concatenated. When no index was materialized, or when
// an insert shifted global indexes (invalidating every entry of the old
// concatenations), the index is simply left to lazy rebuild on first use.
func (s *Snapshot) seedLabelIndex(old *Snapshot, e *snapEntry, rebuiltShards []int) {
	oldIdx := old.byLabel.Load()
	if oldIdx == nil || e.shifted {
		return
	}
	if !e.grown {
		// Edge-only refreeze: labels, dense indexes and every per-shard
		// partition are unchanged, so the old concatenations are the new
		// ones — share the whole index.
		s.byLabel.Store(oldIdx)
		return
	}
	// A label is touched when a rebuilt shard holds it now (its indexes may
	// have changed) or held it before the rebuild (its old indexes may be
	// gone — a removal can take a shard's last holder of a label with it, so
	// the old side must be scanned too). Old shards past the new shard count
	// were dropped entirely by a shrinking removal; everything they held is
	// touched.
	touched := make(map[Label]bool)
	for _, k := range rebuiltShards {
		for l := range s.shards[k].byLabel {
			touched[l] = true
		}
		if k < len(old.shards) {
			for l := range old.shards[k].byLabel {
				touched[l] = true
			}
		}
	}
	for k := len(s.shards); k < len(old.shards); k++ {
		for l := range old.shards[k].byLabel {
			touched[l] = true
		}
	}
	fresh := make(map[Label][]int32, len(*oldIdx)+len(touched))
	for l, idxs := range *oldIdx {
		if !touched[l] {
			fresh[l] = idxs
		}
	}
	for l := range touched {
		var concat []int32
		for k := range s.shards {
			concat = append(concat, s.shards[k].byLabel[l]...)
		}
		fresh[l] = concat
	}
	s.byLabel.Store(&fresh)
}

// buildLabelIndex materializes the cross-shard label index: shard ranges are
// increasing and each per-shard partition is sorted, so concatenation in
// shard order is globally sorted.
func (s *Snapshot) buildLabelIndex() map[Label][]int32 {
	byLabel := make(map[Label][]int32)
	for k := range s.shards {
		for l, idxs := range s.shards[k].byLabel {
			byLabel[l] = append(byLabel[l], idxs...)
		}
	}
	return byLabel
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

// ShardVertexIDs returns shard k's dense-index→VertexID translation as a
// shared slice: entry j is the VertexID of global dense index lo+j, where
// [lo, _) is the shard's ShardRange. Callers must not modify it. Hot
// consumers translating many indexes of one shard (the enumeration emit
// path) use it to skip the per-call shard routing of ID.
func (s *Snapshot) ShardVertexIDs(k int) []VertexID {
	return s.shards[k].ids
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
	return sh.colIdx[sh.rowPtr[j]:sh.rowPtr[j+1]]
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

// IndexesWithLabel returns the sorted dense indexes of all vertices carrying
// the given label, as a shared slice. Callers must not modify it. The
// cross-shard concatenation is built on first call (synchronized, so
// concurrent readers are safe); per-shard consumers should prefer
// ShardIndexesWithLabel, which never materializes a full-graph index.
func (s *Snapshot) IndexesWithLabel(l Label) []int32 {
	if m := s.byLabel.Load(); m != nil {
		return (*m)[l]
	}
	s.labelMu.Lock()
	defer s.labelMu.Unlock()
	if m := s.byLabel.Load(); m != nil {
		return (*m)[l]
	}
	m := s.buildLabelIndex()
	s.byLabel.Store(&m)
	return m[l]
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
