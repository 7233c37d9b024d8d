package isomorph

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Options controls occurrence enumeration. Sharding is not among them: the
// search runs on the snapshot it is handed, so the shard count is decided
// where that snapshot is frozen (core, support.Engine, the store).
type Options struct {
	// Parallelism is the number of worker goroutines the enumeration engine
	// partitions root candidates across. Zero picks GOMAXPROCS (falling back
	// to a single worker on tiny inputs where goroutine overhead dominates);
	// 1 forces the deterministic sequential path; values above 1 are used
	// as given.
	Parallelism int
	// Symmetry, when non-nil, must be NewSymmetry of the pattern searched,
	// and makes the search one over instances: of the Symmetry.Order()
	// occurrences of an instance it delivers exactly one, the representative
	// that satisfies the plan's ordering constraints (Symmetry.below), and
	// never descends into the branches that would have found the others. A
	// consumer counts Order() occurrences per representative and reads
	// f(orbit) as every orbit node's images (see Symmetry); which occurrence
	// represents an instance depends on the search order and so on the
	// snapshot, and nothing may depend on it — a list of instances
	// (ListSnapshot) copies each out as its smallest automorphic copy, which
	// does not. Nil is the full search: every occurrence.
	Symmetry *Symmetry
	// Masks, when non-nil, confines the search: aligned with the pattern's
	// Nodes(), Masks[i] is a set of dense indexes of the snapshot searched
	// (nil for a node left free), and the node at position i is only ever
	// tried at an index in it — at the root, in every memoized run and in
	// every intersection. A mask must hold the node's image in every
	// occurrence; then the search delivers what it delivers without masks, in
	// an order that may differ, and only visits less. The planner counts a
	// masked position's candidates by its mask instead of its label. The miner
	// builds masks from the domains of a candidate's sub-patterns.
	Masks []Mask
}

// workers resolves the effective worker count for a search with the given
// number of root candidates on a data graph with n vertices.
func (o Options) workers(roots, n int) int {
	w := o.Parallelism
	if w <= 0 {
		// Auto mode: parallelism is not worth goroutine startup on tiny
		// graphs or when there is almost nothing to partition.
		if n < 128 || roots < 4 {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > roots {
		w = roots
	}
	if w < 1 {
		w = 1
	}
	return w
}

// below returns, by depth of the given search order, the earlier depths whose
// assigned index bounds the depth's candidates from below: Symmetry's
// ordering constraints, or none at any depth for the full search.
func (o Options) below(order []int) [][]int {
	if o.Symmetry == nil {
		return make([][]int, len(order))
	}
	return o.Symmetry.below(order, o.Symmetry.perms)
}

// checkMasks panics unless Masks is nil or holds one mask (or nil) per node
// of a k-node pattern, each exactly as wide as snap: a mask of another
// snapshot is a caller's bug, not an index out of range deep in a search.
func (o Options) checkMasks(snap *graph.Snapshot, k int) {
	if o.Masks == nil {
		return
	}
	if len(o.Masks) != k {
		panic(fmt.Sprintf("isomorph: %d masks for a %d-node pattern", len(o.Masks), k))
	}
	for _, mask := range o.Masks {
		if mask != nil && len(mask) != (snap.NumVertices()+63)/64 {
			panic(fmt.Sprintf("isomorph: a mask of %d words over a snapshot of %d vertices", len(mask), snap.NumVertices()))
		}
	}
}

// searchPlan is the per-(graph, pattern) preprocessing shared by all workers:
// the frozen CSR snapshot, the connected search order with its label/degree
// constraints, the anchor depths used for connectivity pruning, and the
// label+degree pruned root candidate set.
type searchPlan struct {
	snap  *graph.Snapshot
	nodes []pattern.NodeID // sorted pattern nodes, shared by all occurrences
	k     int

	slot   []int         // slot[d]: index into nodes of the d-th matched node
	label  []graph.Label // required label at depth d
	minDeg []int         // pattern degree at depth d (data degree lower bound)
	mask   []Mask        // mask[d]: the indexes depth d is confined to, nil when free
	// anchors[d] lists earlier depths whose pattern node is adjacent to the
	// node matched at depth d; every listed assignment must be a data
	// neighbor of the depth-d candidate.
	anchors [][]int

	// slotOf[d] is the memoized-run slot serving depth d, or -1 when the
	// depth is not single-anchor. Depths whose (anchor depth, label, minDeg,
	// mask) constraint key coincides share a slot, so a star's leaf depths pay
	// one filter pass per anchor assignment.
	slotOf   []int
	numSlots int

	// below[d] lists the earlier depths whose assigned index the candidate
	// at depth d must exceed: the ordering constraints that keep one
	// occurrence per instance (Symmetry.below). Every list is empty in a
	// full search, which is the same code with nowhere to start later.
	below [][]int
	// weight is the number of occurrences one emit stands for: |Aut(P)|
	// under a Symmetry, one without.
	weight uint64

	// rootsByShard holds the label- and degree-pruned root candidates of each
	// non-empty snapshot shard, in ascending shard (and therefore global
	// index) order. Keeping the partition shard-first lets parallel workers
	// own whole shards before stealing across them; concatenated in order it
	// is exactly the sorted global candidate list the sequential path walks.
	rootsByShard [][]int32
	// shardIDs maps each rootsByShard entry back to its snapshot shard
	// number (empty shards are dropped from the schedule, so positions and
	// shard numbers diverge). The drain loops use it to announce shard
	// ownership to the snapshot's backing (Snapshot.AcquireShard), which is
	// how the out-of-core store learns which shards to page in ahead of a
	// drain and which to evict last.
	shardIDs []int
	numRoots int
}

// newSearchPlan compiles the matching order of p against the given frozen
// snapshot (see planner.go) and precomputes the per-depth constraint data and
// kernel slots. It returns nil when the pattern cannot occur at all (empty
// pattern, a label absent from the data graph, or an empty root mask).
func newSearchPlan(snap *graph.Snapshot, p *pattern.Pattern, opts Options) *searchPlan {
	m := newPatternModel(p)
	opts.checkMasks(snap, len(m.nodes))
	order, _ := chooseOrder(snap, m, opts.Masks, opts.Symmetry)
	if len(order) == 0 {
		return nil
	}
	weight := uint64(1)
	if opts.Symmetry != nil {
		weight = uint64(opts.Symmetry.Order())
	}
	pl := compilePlan(snap, m, order, opts.below(order), weight, opts.Masks)
	if mask := pl.mask[0]; mask != nil {
		pl.bucketRoots(pl.rootsFromMask(mask))
	} else {
		pl.bucketRoots(pl.rootsFromLabel())
	}
	if pl.numRoots == 0 {
		return nil
	}
	return pl
}

// compilePlan precomputes the per-depth constraint data and kernel slots of
// the given search order, confined to masks (by pattern position, nil for
// none); the root candidates are the caller's to fill in.
func compilePlan(snap *graph.Snapshot, m *patternModel, order []int, below [][]int, weight uint64, masks []Mask) *searchPlan {
	pl := &searchPlan{
		snap:    snap,
		nodes:   m.nodes,
		k:       len(m.nodes),
		slot:    order,
		label:   make([]graph.Label, len(order)),
		minDeg:  make([]int, len(order)),
		mask:    make([]Mask, len(order)),
		anchors: make([][]int, len(order)),
		below:   below,
		weight:  weight,
	}
	// depthOf[i]: search depth of pattern position i, -1 until ordered.
	depthOf := make([]int, pl.k)
	for i := range depthOf {
		depthOf[i] = -1
	}
	for d, i := range order {
		pl.label[d] = m.labels[i]
		pl.minDeg[d] = m.deg[i]
		if masks != nil {
			pl.mask[d] = masks[i]
		}
		for _, nb := range m.adj[i] {
			if ad := depthOf[nb]; ad >= 0 {
				pl.anchors[d] = append(pl.anchors[d], ad)
			}
		}
		depthOf[i] = d
	}
	pl.assignSlots()
	return pl
}

// rootsFromMask returns, ascending, the members of mask that pass the root's
// label and degree constraints.
func (pl *searchPlan) rootsFromMask(mask Mask) []int32 {
	snap := pl.snap
	roots := make([]int32, 0, mask.Count())
	for i, w := range mask {
		for ; w != 0; w &= w - 1 {
			c := int32(i<<6 + bits.TrailingZeros64(w))
			if snap.LabelAt(c) == pl.label[0] && snap.DegreeAt(c) >= pl.minDeg[0] {
				roots = append(roots, c)
			}
		}
	}
	return roots
}

// rootsFromLabel returns, ascending, the vertices of the root's label that
// pass its degree constraint, read off the shards' label indexes into one
// slice sized by them.
func (pl *searchPlan) rootsFromLabel() []int32 {
	snap := pl.snap
	n := 0
	for s := range snap.NumShards() {
		n += len(snap.ShardIndexesWithLabel(s, pl.label[0]))
	}
	roots := make([]int32, 0, n)
	for s := range snap.NumShards() {
		for _, c := range snap.ShardIndexesWithLabel(s, pl.label[0]) {
			if snap.DegreeAt(c) >= pl.minDeg[0] {
				roots = append(roots, c)
			}
		}
	}
	return roots
}

// bucketRoots makes roots, ascending, the plan's root candidates, bucketed by
// shard. A shard is a range of indexes, so each bucket is a stretch of the
// one list.
func (pl *searchPlan) bucketRoots(roots []int32) {
	snap := pl.snap
	for len(roots) > 0 {
		s, n := snap.ShardOf(roots[0]), 1
		for n < len(roots) && snap.ShardOf(roots[n]) == s {
			n++
		}
		pl.rootsByShard = append(pl.rootsByShard, roots[:n:n])
		pl.shardIDs = append(pl.shardIDs, s)
		pl.numRoots += n
		roots = roots[n:]
	}
}

// assignSlots gives every single-anchor depth a memoized-run slot, sharing
// slots between depths whose (anchor depth, label, minDeg, mask) key
// coincides — masks by content, so the equal masks of a star's leaves share.
// The key count is at most the pattern size, so a linear scan suffices.
func (pl *searchPlan) assignSlots() {
	type slotKey struct {
		anchor int
		label  graph.Label
		minDeg int
	}
	var keys []slotKey
	var depths []int // depths[j]: a depth served by slot j, for its mask
	pl.slotOf = make([]int, pl.k)
	for d := range pl.slotOf {
		pl.slotOf[d] = -1
		if d == 0 || len(pl.anchors[d]) != 1 {
			continue
		}
		key := slotKey{pl.anchors[d][0], pl.label[d], pl.minDeg[d]}
		idx := -1
		for j, k := range keys {
			if k == key && slices.Equal(pl.mask[depths[j]], pl.mask[d]) {
				idx = j
				break
			}
		}
		if idx < 0 {
			idx = len(keys)
			keys = append(keys, key)
			depths = append(depths, d)
		}
		pl.slotOf[d] = idx
	}
	pl.numSlots = len(keys)
}

// RunFunc consumes the search's last depth one prefix at a time. With every
// depth but the last assigned, the search makes one call: o is the worker's
// one Occurrence, lent for the length of the call and valid at every position
// but last (the pattern position the last depth matches), and run holds, in
// the order the search visits them, the dense indexes that complete the prefix
// at last — one leaf each, every one an occurrence (a representative, under
// Options.Symmetry). run is the search's own memory, borrowed like o: a
// consumer reads it and does not write or keep it. The leaves of one prefix may
// come in several runs, never an empty one. Returning false stops the search
// as a per-occurrence consumer refusing does (EnumerateSnapshotWorkers).
type RunFunc func(o *Occurrence, last int, run []int32) bool

// leafYield adapts a per-occurrence consumer to runs: it writes each leaf of a
// run into the lent occurrence and hands it over, in order, until the
// consumer refuses. Every entry point with a per-occurrence consumer wraps it
// once per worker in one of these, so it sees the occurrences in the order the
// search visits them.
type leafYield struct {
	yield func(*Occurrence) bool
}

//gvet:hotpath
func (l *leafYield) run(o *Occurrence, last int, run []int32) bool {
	for _, c := range run {
		o.indexes[last] = c
		if !l.yield(o) {
			return false
		}
	}
	return true
}

// searchState is the per-worker mutable state of the backtracking search.
// Nothing in it is sized by the data graph: a worker costs its pattern, so a
// search pinned at a handful of vertices is as cheap to start as it is to run.
type searchState struct {
	pl      *searchPlan
	assign  []int32 // assign[d]: dense index matched at depth d
	consume RunFunc

	// slots holds the memoized single-anchor candidate runs (see kernels.go);
	// scratch[d] is depth d's reusable buffer for multi-anchor galloping
	// intersections. Both are worker-local, so the kernels stay allocation-
	// free after warmup.
	slots   []runSlot
	scratch [][]int32

	// occ is the one Occurrence this worker ever lends: emit overwrites the
	// prefix's indexes in place and lends it, bound to the plan's snapshot,
	// to the consumer for the length of the call.
	occ Occurrence
	// emits counts the leaves delivered and scanned the neighbour-row entries
	// the kernels read since the drain loop last published them (publish):
	// the anchor row's length per memoized run built, the shorter row's length
	// per intersection.
	emits, scanned uint64
}

func newSearchState(pl *searchPlan, consume RunFunc) *searchState {
	st := &searchState{
		pl:      pl,
		assign:  make([]int32, pl.k),
		consume: consume,
		occ:     Occurrence{nodes: pl.nodes, indexes: make([]int32, pl.k), snap: pl.snap},
	}
	if pl.numSlots > 0 {
		st.slots = make([]runSlot, pl.numSlots)
		for i := range st.slots {
			st.slots[i].anchor = -1
		}
	}
	st.scratch = make([][]int32, pl.k)
	return st
}

// searchRoot explores the full subtree rooted at candidate r. It returns true
// when the consumer returned false and enumeration must halt. Another
// worker's stop is read by the drain loop between roots, so the per-node path
// carries no check.
//
//gvet:hotpath
func (s *searchState) searchRoot(r int32) bool {
	s.assign[0] = r
	return s.search(1)
}

// above returns the part of a sorted candidate run that lies above the index
// assigned at every one of the given depths: where a depth bound by ordering
// constraints starts its scan. The cut is a binary search on the run the
// depth was going to walk anyway, so the symmetric branches below it are
// never entered rather than entered and rejected.
//
//gvet:hotpath
func (s *searchState) above(run []int32, below []int) []int32 {
	floor := s.assign[below[0]]
	for _, d := range below[1:] {
		if x := s.assign[d]; x > floor {
			floor = x
		}
	}
	lo, hi := 0, len(run)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); run[mid] <= floor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return run[lo:]
}

// taken reports whether dense index c is already matched at one of the first
// depth depths. An occurrence is injective, and the partial assignment is the
// whole record of what is matched: at most k-1 int32s, resident in L1, where
// a flag per data vertex costs every worker of every pass an n-sized
// allocation, a random access per candidate and two stores to keep it current.
//
//gvet:hotpath
func (s *searchState) taken(c int32, depth int) bool {
	for _, a := range s.assign[:depth] {
		if a == c {
			return true
		}
	}
	return false
}

// search extends the partial assignment at the given depth through one of the
// two candidate kernels (see kernels.go): the memoized single-anchor run, or
// the galloping intersection when the depth has two or more anchors. Every
// depth past the root has at least one anchor because the search order is
// connected. Both kernels visit candidates in ascending dense-index order, so
// the sequential emission order is fixed by the search order alone. The last
// depth does not descend: it hands its candidates that pass every check to the
// consumer as runs (emit). Only a search whose every depth is bound before it
// starts — one node, or a pinned edge — reaches depth k, and emits the one
// assignment it has as a run of one.
//
//gvet:hotpath
func (s *searchState) search(depth int) bool {
	pl := s.pl
	if depth == pl.k {
		return !s.emit(s.assign[depth-1:])
	}
	snap := pl.snap
	anchors := pl.anchors[depth]
	label := pl.label[depth]
	minDeg := pl.minDeg[depth]

	if slot := pl.slotOf[depth]; slot >= 0 {
		// Single anchor: iterate the anchor assignment's memoized
		// label+degree filtered run; only the taken check is dynamic. The run is
		// recomputed when the anchor depth is reassigned, which can only
		// happen after every loop over the run has unwound, so sibling depths
		// sharing the slot read it safely.
		sl := &s.slots[slot]
		if av := s.assign[anchors[0]]; sl.anchor != av {
			row := snap.NeighborsAt(av)
			if mask := pl.mask[depth]; mask != nil {
				sl.run = filterRunMasked(snap, row, label, minDeg, mask, sl.run[:0])
			} else {
				sl.run = filterRun(snap, row, label, minDeg, sl.run[:0])
			}
			sl.anchor = av
			s.scanned += uint64(len(row))
		}
		run := sl.run
		if below := pl.below[depth]; len(below) > 0 {
			run = s.above(run, below)
		}
		if depth == pl.k-1 {
			return s.emitUntaken(run, depth)
		}
		for _, c := range run {
			if s.taken(c, depth) {
				continue
			}
			s.assign[depth] = c
			if s.search(depth + 1) {
				return true
			}
		}
		return false
	}
	return s.searchGallop(depth, anchors, label, minDeg)
}

// emitUntaken emits the last depth's memoized run as the pieces between the
// entries taken rejects — at most k-1 of them, since the run holds no index
// twice — so every piece is a stretch of the run itself and nothing is
// copied. It returns true when the consumer returned false.
//
//gvet:hotpath
func (s *searchState) emitUntaken(run []int32, depth int) bool {
	start := 0
	for i, c := range run {
		if s.taken(c, depth) {
			if i > start && !s.emit(run[start:i]) {
				return true
			}
			start = i + 1
		}
	}
	return start < len(run) && !s.emit(run[start:])
}

// searchGallop is the multi-anchor kernel: intersect the two smallest-degree
// anchors' sorted neighbor runs by galloping binary search, filter the
// (typically tiny) intersection by the static constraints, and verify any
// remaining anchors on the CSR rows (HasEdgeAt). The candidates that pass
// are compacted in place in the depth's scratch buffer, keeping their order;
// the last depth emits them as one run, any other descends into each in turn.
//
//gvet:hotpath
func (s *searchState) searchGallop(depth int, anchors []int, label graph.Label, minDeg int) bool {
	snap := s.pl.snap
	// Find the two anchors with the smallest assigned-vertex degrees.
	a1, a2 := anchors[0], anchors[1]
	if snap.DegreeAt(s.assign[a2]) < snap.DegreeAt(s.assign[a1]) {
		a1, a2 = a2, a1
	}
	for _, a := range anchors[2:] {
		switch d := snap.DegreeAt(s.assign[a]); {
		case d < snap.DegreeAt(s.assign[a1]):
			a1, a2 = a, a1
		case d < snap.DegreeAt(s.assign[a2]):
			a2 = a
		}
	}
	row1, row2 := snap.NeighborsAt(s.assign[a1]), snap.NeighborsAt(s.assign[a2])
	s.scanned += uint64(min(len(row1), len(row2)))
	run := gallopIntersect(row1, row2, s.scratch[depth][:0])
	if mask := s.pl.mask[depth]; mask != nil {
		run = keepMasked(run, mask)
	}
	s.scratch[depth] = run // keep the grown capacity for the next visit
	if below := s.pl.below[depth]; len(below) > 0 {
		run = s.above(run, below)
	}

	pass := run[:0]
candidateLoop:
	for _, c := range run {
		if s.taken(c, depth) || snap.LabelAt(c) != label || snap.DegreeAt(c) < minDeg {
			continue
		}
		for _, a := range anchors {
			if a != a1 && a != a2 && !snap.HasEdgeAt(c, s.assign[a]) {
				continue candidateLoop
			}
		}
		pass = append(pass, c)
	}
	if depth == s.pl.k-1 {
		return len(pass) > 0 && !s.emit(pass)
	}
	for _, c := range pass {
		s.assign[depth] = c
		if s.search(depth + 1) {
			return true
		}
	}
	return false
}

// emit lends the consumer one run of leaves under the current prefix: it
// writes the images of depths 0..k-2 into the worker's one Occurrence, in
// pattern-node order and as dense indexes only — a consumer that wants a
// VertexID derives it from the occurrence's snapshot — and returns the
// consumer's continue/stop decision. The occurrence and run are borrowed: the
// next emit overwrites them, so a consumer copies what it wants to keep
// before it returns.
//
//gvet:hotpath
func (s *searchState) emit(run []int32) bool {
	pl := s.pl
	indexes := s.occ.indexes
	for d := 0; d < pl.k-1; d++ {
		indexes[pl.slot[d]] = s.assign[d]
	}
	s.emits += uint64(len(run))
	return s.consume(&s.occ, pl.slot[pl.k-1], run)
}

// publish moves the worker's emitted leaves and scanned row entries since the
// last call into the enumeration counters: what the search delivered, the
// occurrences that stands for, and what the kernels read to find it. The
// drain loops call it once per drained shard, beside the root count, so the
// search itself only adds to worker-local integers. A consumer that stops
// mid-run still counts the whole run.
func (s *searchState) publish() {
	mRepresentatives.Add(s.emits)
	mOccurrences.Add(s.emits * s.pl.weight)
	mScanned.Add(s.scanned)
	s.emits, s.scanned = 0, 0
}

// EnumerateSnapshotWorkers is the streaming entry point of the enumeration
// engine: it partitions the root candidates of pattern p in the frozen
// snapshot snap across a worker pool and streams every occurrence into
// per-worker consumers, without materializing any occurrence list. The search
// never freezes a graph — callers freeze (and choose the shard count) before
// calling — and because snapshots are immutable this is also how historical
// state is searched: a retained old snapshot is searched as it was while the
// graph has already moved on (the minus pass of core.DeltaContext does so
// through a PinnedSearch, which binds whichever snapshot each run is handed).
//
// newYield is invoked once per worker, serially, before the workers start;
// the returned consumer is then called from that worker's goroutine only, so
// consumers may accumulate into unsynchronized worker-local state. Returning
// false from any consumer stops all workers, at root granularity: the worker
// whose consumer refused stops at once and never calls it again, and the
// others finish the root they are searching and stop before their next one.
//
// The *Occurrence a consumer receives is borrowed: each worker owns one
// Occurrence, overwrites it for every occurrence it finds and lends it for
// the length of the call, complete at every position. A consumer folds it
// into its own state or copies out what it keeps (Images, Key, ...) before
// returning; EnumerateSnapshot is the consumer that keeps everything. The
// search writes only the images' dense indexes in snap (IndexAt), so a
// consumer whose state lives and dies with snap never handles a VertexID;
// every VertexID accessor (ImageAt, Images, Key, ...) derives its answer from
// snap on demand, so a consumer pays for the translations it reads and no
// more. A consumer that can take the search's last depth a prefix at a time
// (core's MNI rows) takes runs from EnumerateSnapshotRuns instead; this entry
// point is that one with each consumer wrapped to see the runs' leaves one by
// one, in the same order.
//
// With an effective parallelism of one (Options.Parallelism == 1 or a tiny
// input in auto mode) everything runs on the calling goroutine in the
// deterministic sequential search order.
func EnumerateSnapshotWorkers(snap *graph.Snapshot, p *pattern.Pattern, opts Options, newYield func(worker int) func(*Occurrence) bool) {
	EnumerateSnapshotRuns(snap, p, opts, func(w int) RunFunc {
		return (&leafYield{newYield(w)}).run
	})
}

// EnumerateSnapshotRuns is EnumerateSnapshotWorkers with consumers of runs
// (RunFunc): every worker lends its consumer one Occurrence per prefix of the
// search's last depth, valid but at the last-matched position, with the
// leaves that complete it. newRuns and the consumers it returns are called as
// newYield and its consumers are there, and the leaves arrive in the order
// that entry point lends its occurrences in.
func EnumerateSnapshotRuns(snap *graph.Snapshot, p *pattern.Pattern, opts Options, newRuns func(worker int) RunFunc) {
	pl := newSearchPlan(snap, p, opts)
	if pl == nil {
		return
	}
	workers := opts.workers(pl.numRoots, pl.snap.NumVertices())

	if workers == 1 {
		pl.drain(newSearchState(pl, newRuns(0)))
		return
	}

	// Shard-first scheduling: every shard carries an atomic cursor into its
	// root list. Each worker starts on its own slice of the shard sequence
	// and drains whole shards — so its hot loops touch one shard's arrays at
	// a time — then walks the remaining shards circularly, stealing leftover
	// roots from shards other workers have not finished.
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	cursors := make([]int64, len(pl.rootsByShard))
	numShards := len(pl.rootsByShard)
	// All consumers are created before any worker starts, so newRuns may
	// safely grow shared registries without synchronization.
	consumers := make([]RunFunc, workers)
	for w := range consumers {
		consumers[w] = newRuns(w)
	}
	for w := 0; w < workers; w++ {
		consume := consumers[w]
		start := w * numShards / workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newSearchState(pl, consume)
			for k := 0; k < numShards; k++ {
				s := (start + k) % numShards
				roots := pl.rootsByShard[s]
				if atomic.LoadInt64(&cursors[s]) >= int64(len(roots)) {
					continue // already drained; skip the residency churn
				}
				var searched uint64
				halt := func() bool {
					snap.AcquireShard(pl.shardIDs[s])
					defer snap.ReleaseShard(pl.shardIDs[s])
					for {
						i := atomic.AddInt64(&cursors[s], 1) - 1
						if i >= int64(len(roots)) {
							return false
						}
						if stop.Load() {
							return true
						}
						searched++
						if st.searchRoot(roots[i]) {
							stop.Store(true)
							return true
						}
					}
				}()
				mShardDrains.Inc()
				mRoots.Add(searched)
				st.publish()
				if halt {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// drain searches every root candidate of the plan on the calling goroutine,
// shard by shard in ascending index order — the deterministic sequential
// search order — until the roots run out or the consumer stops the search.
func (pl *searchPlan) drain(st *searchState) {
	snap := pl.snap
	for s, roots := range pl.rootsByShard {
		snap.AcquireShard(pl.shardIDs[s])
		searched, halt := len(roots), false
		for j, r := range roots {
			if st.searchRoot(r) {
				searched, halt = j+1, true
				break
			}
		}
		snap.ReleaseShard(pl.shardIDs[s])
		mShardDrains.Inc()
		mRoots.Add(uint64(searched))
		st.publish()
		if halt {
			return
		}
	}
}

// PinnedSearch is a compiled search whose first edge is prescribed: the
// occurrences of a pattern that map a given arc (a, b) of it — an edge, its
// ends in order, as positions of p.Nodes() — onto given data edges. Its search
// order is a, b, then the planner's greedy growth from that edge, so a run
// costs the neighbourhoods of the edges it is handed, whatever the arc — which
// is what an update wants: the occurrences through a handful of changed edges
// (core.DeltaContext pins the first arc of every edge orbit at them in turn).
//
// Everything that depends on the pattern alone or on a snapshot's statistics
// — the order, the per-depth constraints, the symmetry bounds, the kernel
// slots and one search state — is compiled once, by NewPinnedSearch, and
// every Run only binds the snapshot it is handed. A search order changes how
// fast a run is, never what it delivers, so an order fixed against one
// snapshot's statistics serves its successors: a caller recompiles when the
// statistics have moved far, not per run.
//
// A run tries each data edge {x, y} in the orientations the search's group
// leaves distinct. With sym the pattern's Symmetry, the occurrences of one
// instance that map (a, b) to a given data arc are one coset of the pointwise
// stabiliser of a and b in Aut(P), and the search delivers one of them
// (Symmetry.below), never entering the branches of the others. When some
// automorphism maps (a, b) to (b, a) — a triangle's edge, a one-label edge —
// the two orientations of a data edge meet the same cosets, so a run tries
// (x, y) alone; otherwise it tries both, and an instance meets its edge in at
// most one of them. Either way a run delivers one representative per pair
// (instance, data edge) in which the instance maps an edge of (a, b)'s orbit
// onto the data edge. With sym nil the group is the identity: a run tries
// both orientations and delivers every occurrence mapping (a, b) onto a data
// edge either way round. As under Options.Symmetry, nothing may depend on
// which occurrence represents an instance.
//
// A PinnedSearch is not safe for concurrent use: its runs share one search
// state. Each core.DeltaContext owns its searches and runs them one at a time.
type PinnedSearch struct {
	pl *searchPlan
	st *searchState
	// leaves is the search state's consumer: the adapter that hands a run's
	// leaves to the yield Run was handed; that yield is nil between runs.
	leaves leafYield
	// reversible reports that the search's group maps (a, b) to (b, a), so
	// one orientation of a data edge meets every coset the other does.
	reversible bool
}

// NewPinnedSearch compiles the search of p pinned at the arc (a, b) of
// positions of p.Nodes(), which must be adjacent, ordered from snap's
// statistics, under sym (nil for the full search). It retains nothing of snap.
func NewPinnedSearch(snap *graph.Snapshot, p *pattern.Pattern, sym *Symmetry, a, b int) *PinnedSearch {
	m := newPatternModel(p)
	if !slices.Contains(m.adj[a], b) {
		panic(fmt.Sprintf("isomorph: a search pinned at positions %d and %d of %v, which are not adjacent", a, b, p))
	}
	order := growOrder(m, newPlannerStats(snap, m, nil), a, b)
	below, weight, reversible := make([][]int, len(order)), uint64(1), false
	if sym != nil {
		stabiliser := sym.stabiliser(a, b)
		below, weight, reversible = sym.below(order, stabiliser), uint64(len(stabiliser)), sym.swaps(a, b)
	}
	ps := &PinnedSearch{pl: compilePlan(snap, m, order, below, weight, nil), reversible: reversible}
	ps.st = newSearchState(ps.pl, ps.leaves.run)
	ps.pl.snap, ps.st.occ.snap = nil, nil
	return ps
}

// Arc returns the pattern positions (a, b) the search is pinned at.
func (ps *PinnedSearch) Arc() (a, b int) { return ps.pl.slot[0], ps.pl.slot[1] }

// EdgeKey packs the edge between dense indexes x and y as one uint64, the
// smaller index in the high half, so an edge has one key and keys sort by
// (lo, hi). It is the form PinnedSearch.Run is handed its data edges in.
func EdgeKey(x, y int32) uint64 {
	if x > y {
		x, y = y, x
	}
	return uint64(x)<<32 | uint64(y)
}

// Run streams, on the calling goroutine and in the deterministic sequential
// order of the compiled search, the occurrences of the pattern in snap that
// map the pinned arc onto one of the given data edges (EdgeKey-packed dense
// indexes of snap, tried in the order given, none twice; one whose ends fail
// the arc's label or degree constraints, or that snap does not have, is
// skipped),
// in the orientations the search's group leaves distinct (see PinnedSearch).
// The *Occurrence lent to yield is borrowed, as in EnumerateSnapshotWorkers;
// returning false stops the run.
//
// Each run binds snap afresh: every memoized candidate run is dropped,
// because a run is keyed by its anchor's dense index and that index names
// another vertex — or the same vertex with another neighbour row — on another
// snapshot. On return the search holds no reference to snap or yield — its
// lent occurrence included, which is bound to snap only while the run lasts.
func (ps *PinnedSearch) Run(snap *graph.Snapshot, edges []uint64, yield func(*Occurrence) bool) {
	if len(edges) == 0 {
		return
	}
	pl, st := ps.pl, ps.st
	pl.snap = snap
	for i := range st.slots {
		st.slots[i].anchor = -1
	}
	st.occ.snap, ps.leaves.yield = snap, yield
	var searched uint64
	for _, e := range edges {
		x, y := int32(e>>32), int32(uint32(e))
		if st.searchArc(x, y, &searched) || !ps.reversible && st.searchArc(y, x, &searched) {
			break
		}
	}
	// Each arc is searched inside an acquisition of its first end's shard:
	// a drain of one root.
	mShardDrains.Add(searched)
	mRoots.Add(searched)
	st.publish()
	pl.snap, st.occ.snap, ps.leaves.yield = nil, nil, nil
}

// searchArc binds depth 0 to u and depth 1 to v, when they pass those
// depths' label and degree constraints and are adjacent, and explores the
// subtree below them, counting the arc in searched. It returns true when the
// consumer returned false and the run must halt.
//
//gvet:hotpath
func (s *searchState) searchArc(u, v int32, searched *uint64) bool {
	pl := s.pl
	snap := pl.snap
	if snap.LabelAt(u) != pl.label[0] || snap.DegreeAt(u) < pl.minDeg[0] ||
		snap.LabelAt(v) != pl.label[1] || snap.DegreeAt(v) < pl.minDeg[1] || !snap.HasEdgeAt(u, v) {
		return false
	}
	*searched++
	shard := snap.ShardOf(u)
	snap.AcquireShard(shard)
	s.assign[0], s.assign[1] = u, v
	halt := s.search(2)
	snap.ReleaseShard(shard)
	return halt
}

// EnumerateSnapshot returns all occurrences of pattern p in snap, in the
// canonical deterministic order (see SortOccurrences). It is ListSnapshot
// with no consumer of its own: under Options.Symmetry the list is one
// occurrence per instance.
func EnumerateSnapshot(snap *graph.Snapshot, p *pattern.Pattern, opts Options) []*Occurrence {
	occs, _ := ListSnapshot(snap, p, opts, nil)
	return occs
}

// ListSnapshot is the one materializer on top of the streaming engine: it
// runs EnumerateSnapshotRuns, copies out every leaf of every run a worker
// finds and then passes the run unchanged to that worker's consumer from
// newRuns (nil for none); the workers' copies are sorted together, so the
// list is identical for every Parallelism setting and every shard geometry,
// and the returned occurrences are the caller's to keep. A consumer that
// returns false stops the search, and the list holds what was found until
// then, the refused run included.
//
// With Options.Symmetry nil the list is every occurrence, in the canonical
// order (see SortOccurrences). Under a Symmetry it is one occurrence per
// instance: the search's representative is copied out as the instance's
// smallest automorphic copy, the one that comes first in the full list, and
// the list is in the canonical order of those — the full list with every
// other copy left out. Symmetry.Expand puts the others back.
//
// The copies stay in snap's dense indexes until the list is sorted: the
// occurrences are k-tuples of indexes in one flat array, sorted as tuples —
// indexes ascend with VertexIDs, so tuple order is the canonical order — and
// translated to VertexIDs once, after. ListSnapshot returns that array as
// well: indexes[j*k:(j+1)*k] are the dense indexes in snap of occurrence j's
// images, aligned with its Nodes(), for a caller that goes on in snap's
// index space.
func ListSnapshot(snap *graph.Snapshot, p *pattern.Pattern, opts Options, newRuns func(worker int) RunFunc) (occs []*Occurrence, indexes []int32) {
	// Accumulate each worker's stream as pointer-free index chunks. The
	// chunks have a fixed capacity and are never regrown: repeatedly
	// re-growing one flat log would allocate ~5x the final size in copies (Go
	// grows large slices by 1.25x), and on a busy heap that garbage alone
	// forces extra collection cycles mid-run.
	const chunkOccs = 4096 // occurrences per index chunk
	type bucket struct {
		chunks [][]int32
		n      int // total occurrences
	}
	var buckets []*bucket
	sym := opts.Symmetry
	nodes := p.Nodes()
	k := len(nodes)
	EnumerateSnapshotRuns(snap, p, opts, func(w int) RunFunc {
		b := &bucket{}
		buckets = append(buckets, b)
		var consume RunFunc
		if newRuns != nil {
			consume = newRuns(w)
		}
		return func(o *Occurrence, last int, run []int32) bool {
			for _, c := range run {
				o.indexes[last] = c
				cur := len(b.chunks) - 1
				if cur < 0 || len(b.chunks[cur])+k > cap(b.chunks[cur]) {
					b.chunks = append(b.chunks, make([]int32, 0, chunkOccs*k))
					cur++
				}
				if sym == nil {
					b.chunks[cur] = append(b.chunks[cur], o.indexes...)
				} else {
					for _, i := range sym.smallestCopy(o.indexes) {
						b.chunks[cur] = append(b.chunks[cur], o.indexes[i])
					}
				}
			}
			b.n += len(run)
			return consume == nil || consume(o, last, run)
		}
	})
	total := 0
	for _, b := range buckets {
		total += b.n
	}
	if total == 0 {
		return nil, nil
	}
	indexes = make([]int32, 0, total*k)
	for _, b := range buckets {
		for _, c := range b.chunks {
			indexes = append(indexes, c...)
		}
	}
	sortTuples(indexes, k, snap.NumVertices())
	images := make([]graph.VertexID, len(indexes))
	for i, x := range indexes {
		images[i] = snap.ID(x)
	}
	list := make([]Occurrence, total)
	occs = make([]*Occurrence, total)
	for j := range list {
		list[j] = Occurrence{nodes: nodes, images: images[j*k : (j+1)*k : (j+1)*k]}
		occs[j] = &list[j]
	}
	return occs, indexes
}

// sortTuples sorts the k-tuples of dense indexes below n laid end to end in
// flat, lexicographically and in place. When a tuple's k indexes fit in 64
// bits side by side — a pattern of up to five nodes on a snapshot of up to
// 2^12 vertices, four on 2^16 — each is packed into one uint64 key whose
// order is the tuples'. Unless the keys are in order already, as a sequential
// search often leaves them, a counting sort on the first index and a sort of
// each of its runs order them, and they are unpacked again. In CPU profiles
// of the eval-measures benchmark's op (2-core x86-64) that took 0.19 ms an
// op, against 0.27 ms for one sort of all the keys, 0.38 ms for the same
// counting sort with its runs sorted as tuples through a permutation, and
// 0.74 ms for sorting the listed occurrences by Compare. Wider tuples are
// sorted through a permutation.
func sortTuples(flat []int32, k, n int) {
	m := len(flat) / k
	width := bits.Len(uint(n - 1))
	if k*width > 64 {
		perm := make([]int32, m)
		for j := range perm {
			perm[j] = int32(j)
		}
		tuple := func(j int32) []int32 { return flat[int(j)*k : int(j+1)*k] }
		slices.SortFunc(perm, func(a, b int32) int { return slices.Compare(tuple(a), tuple(b)) })
		sorted := make([]int32, 0, len(flat))
		for _, j := range perm {
			sorted = append(sorted, tuple(j)...)
		}
		copy(flat, sorted)
		return
	}
	keys := make([]uint64, m)
	for j := range keys {
		var key uint64
		for _, x := range flat[j*k : (j+1)*k] {
			key = key<<width | uint64(x)
		}
		keys[j] = key
	}
	if slices.IsSorted(keys) {
		return
	}
	first := uint((k - 1) * width)
	start := make([]int32, n+1)
	for _, key := range keys {
		start[key>>first+1]++
	}
	for x := 0; x < n; x++ {
		start[x+1] += start[x]
	}
	sorted := make([]uint64, m)
	next := slices.Clone(start[:n])
	for _, key := range keys {
		sorted[next[key>>first]] = key
		next[key>>first]++
	}
	for x := 0; x < n; x++ {
		if start[x+1]-start[x] > 1 {
			slices.Sort(sorted[start[x]:start[x+1]])
		}
	}
	mask := uint64(1)<<width - 1
	for j, key := range sorted {
		for c := k - 1; c >= 0; c-- {
			flat[j*k+c] = int32(key & mask)
			key >>= width
		}
	}
}
