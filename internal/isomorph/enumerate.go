package isomorph

import (
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
	// MaxOccurrences stops enumeration once this many occurrences have been
	// delivered; zero means unlimited. A positive cap runs the search on the
	// sequential path whatever Parallelism says, so the delivered occurrences
	// are exactly the first MaxOccurrences of the deterministic sequential
	// search order. Mining with a threshold t can set this to a small
	// multiple of t to bound work on very frequent patterns.
	MaxOccurrences int
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
	// snapshot, and nothing may depend on it. A cap counts what is
	// delivered. Nil is the full search: every occurrence, which is what a
	// consumer that keeps or orders occurrences needs.
	Symmetry *Symmetry
}

// workers resolves the effective worker count for a search with the given
// number of root candidates on a data graph with n vertices.
func (o Options) workers(roots, n int) int {
	if o.MaxOccurrences > 0 {
		// The one cap rule: a capped search delivers the first MaxOccurrences
		// occurrences of the sequential order, so it runs on that path.
		return 1
	}
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
	// anchors[d] lists earlier depths whose pattern node is adjacent to the
	// node matched at depth d; every listed assignment must be a data
	// neighbor of the depth-d candidate.
	anchors [][]int

	// slotOf[d] is the memoized-run slot serving depth d, or -1 when the
	// depth is not single-anchor. Depths whose (anchor depth, label, minDeg)
	// constraint key coincides share a slot, so a star's leaf depths pay one
	// filter pass per anchor assignment.
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
// pattern, or a label absent from the data graph).
func newSearchPlan(snap *graph.Snapshot, p *pattern.Pattern, opts Options) *searchPlan {
	m := newPatternModel(p)
	order, _ := chooseOrder(snap, m)
	if len(order) == 0 {
		return nil
	}
	weight := uint64(1)
	if opts.Symmetry != nil {
		weight = uint64(opts.Symmetry.Order())
	}
	pl := compilePlan(snap, m, order, opts.below(order), weight)
	for s := 0; s < snap.NumShards(); s++ {
		var roots []int32
		for _, c := range snap.ShardIndexesWithLabel(s, pl.label[0]) {
			if snap.DegreeAt(c) >= pl.minDeg[0] {
				roots = append(roots, c)
			}
		}
		if len(roots) > 0 {
			pl.rootsByShard = append(pl.rootsByShard, roots)
			pl.shardIDs = append(pl.shardIDs, s)
			pl.numRoots += len(roots)
		}
	}
	if pl.numRoots == 0 {
		return nil
	}
	return pl
}

// compilePlan precomputes the per-depth constraint data and kernel slots of
// the given search order; the root candidates are the caller's to fill in.
func compilePlan(snap *graph.Snapshot, m *patternModel, order []int, below [][]int, weight uint64) *searchPlan {
	pl := &searchPlan{
		snap:    snap,
		nodes:   m.nodes,
		k:       len(m.nodes),
		slot:    order,
		label:   make([]graph.Label, len(order)),
		minDeg:  make([]int, len(order)),
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

// restrictRoots makes the plan's root candidates those of the given sorted
// dense indexes of its snapshot that pass the root's label and degree
// constraints, bucketed by shard, replacing whatever candidates it had and
// reusing their buckets' backing arrays. The list is sorted, so its shards
// come up in ascending order and each bucket is the tail of the list so far.
func (pl *searchPlan) restrictRoots(indexes []int32) {
	snap := pl.snap
	pl.rootsByShard, pl.shardIDs, pl.numRoots = pl.rootsByShard[:0], pl.shardIDs[:0], 0
	for _, c := range indexes {
		if snap.LabelAt(c) != pl.label[0] || snap.DegreeAt(c) < pl.minDeg[0] {
			continue
		}
		s := snap.ShardOf(c)
		if last := len(pl.shardIDs) - 1; last < 0 || pl.shardIDs[last] != s {
			n := len(pl.rootsByShard)
			pl.rootsByShard = slices.Grow(pl.rootsByShard, 1)[:n+1]
			pl.rootsByShard[n] = pl.rootsByShard[n][:0]
			pl.shardIDs = append(pl.shardIDs, s)
		}
		last := len(pl.rootsByShard) - 1
		pl.rootsByShard[last] = append(pl.rootsByShard[last], c)
		pl.numRoots++
	}
}

// assignSlots gives every single-anchor depth a memoized-run slot, sharing
// slots between depths whose (anchor depth, label, minDeg) key coincides.
// The key count is at most the pattern size, so a linear scan suffices.
func (pl *searchPlan) assignSlots() {
	type slotKey struct {
		anchor int
		label  graph.Label
		minDeg int
	}
	var keys []slotKey
	pl.slotOf = make([]int, pl.k)
	for d := range pl.slotOf {
		pl.slotOf[d] = -1
		if d == 0 || len(pl.anchors[d]) != 1 {
			continue
		}
		key := slotKey{pl.anchors[d][0], pl.label[d], pl.minDeg[d]}
		idx := -1
		for j, k := range keys {
			if k == key {
				idx = j
				break
			}
		}
		if idx < 0 {
			idx = len(keys)
			keys = append(keys, key)
		}
		pl.slotOf[d] = idx
	}
	pl.numSlots = len(keys)
}

// searchState is the per-worker mutable state of the backtracking search.
// Nothing in it is sized by the data graph: a worker costs its pattern, so a
// search pinned at a handful of vertices is as cheap to start as it is to run.
type searchState struct {
	pl     *searchPlan
	assign []int32 // assign[d]: dense index matched at depth d
	yield  func(*Occurrence) bool
	stop   *atomic.Bool // shared cancellation flag; nil in sequential mode

	// slots holds the memoized single-anchor candidate runs (see kernels.go);
	// scratch[d] is depth d's reusable buffer for multi-anchor galloping
	// intersections. Both are worker-local, so the kernels stay allocation-
	// free after warmup.
	slots   []runSlot
	scratch [][]int32

	// ids is the single-shard dense-index→VertexID translation, hoisted out
	// of the emit loop when the snapshot has exactly one shard; nil
	// otherwise (emit falls back to Snapshot.ID).
	ids []graph.VertexID
	// occ is the one Occurrence this worker ever yields: emit overwrites its
	// images and indexes in place and lends it to the consumer for the length
	// of the call.
	occ Occurrence
	// emits counts the occurrences lent since the drain loop last published
	// them (publishEmits).
	emits uint64
}

func newSearchState(pl *searchPlan, yield func(*Occurrence) bool, stop *atomic.Bool) *searchState {
	st := &searchState{
		pl:     pl,
		assign: make([]int32, pl.k),
		yield:  yield,
		stop:   stop,
		occ:    Occurrence{nodes: pl.nodes, images: make([]graph.VertexID, pl.k), indexes: make([]int32, pl.k)},
	}
	if pl.numSlots > 0 {
		st.slots = make([]runSlot, pl.numSlots)
		for i := range st.slots {
			st.slots[i].anchor = -1
		}
	}
	st.scratch = make([][]int32, pl.k)
	st.ids = singleShardIDs(pl.snap)
	return st
}

// singleShardIDs returns the dense-index→VertexID translation of a snapshot
// with exactly one shard, and nil for any other.
func singleShardIDs(snap *graph.Snapshot) []graph.VertexID {
	if snap.NumShards() == 1 {
		return snap.ShardVertexIDs(0)
	}
	return nil
}

// searchRoot explores the full subtree rooted at candidate r. It returns true
// when enumeration must halt (the consumer returned false or another worker
// set the stop flag).
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
// the sequential emission order is fixed by the search order alone.
//
//gvet:hotpath
func (s *searchState) search(depth int) bool {
	if s.stop != nil && s.stop.Load() {
		return true
	}
	pl := s.pl
	if depth == pl.k {
		return !s.emit()
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
			sl.run = filterRun(snap, snap.NeighborsAt(av), label, minDeg, sl.run[:0])
			sl.anchor = av
		}
		run := sl.run
		if below := pl.below[depth]; len(below) > 0 {
			run = s.above(run, below)
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

// searchGallop is the multi-anchor kernel: intersect the two smallest-degree
// anchors' sorted neighbor runs by galloping binary search, filter the
// (typically tiny) intersection by the static constraints, and verify any
// remaining anchors through the snapshot's high-degree adjacency bitsets
// when available.
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
	run := gallopIntersect(snap.NeighborsAt(s.assign[a1]), snap.NeighborsAt(s.assign[a2]), s.scratch[depth][:0])
	s.scratch[depth] = run // keep the grown capacity for the next visit
	if below := s.pl.below[depth]; len(below) > 0 {
		run = s.above(run, below)
	}

	// Residual anchors are verified per candidate; hoist their bitmap rows
	// (nil for low-degree assignments) out of the loop.
	type residual struct {
		v    int32
		bits graph.AdjacencyBits
	}
	var resBuf [4]residual
	res := resBuf[:0]
	for _, a := range anchors {
		if a == a1 || a == a2 {
			continue
		}
		v := s.assign[a]
		res = append(res, residual{v, snap.AdjacencyRow(v)})
	}

candidateLoop:
	for _, c := range run {
		if s.taken(c, depth) || snap.LabelAt(c) != label || snap.DegreeAt(c) < minDeg {
			continue
		}
		for _, r := range res {
			if r.bits != nil {
				if !r.bits.Contains(c) {
					continue candidateLoop
				}
			} else if !snap.HasEdgeAt(c, r.v) {
				continue candidateLoop
			}
		}
		s.assign[depth] = c
		if s.search(depth + 1) {
			return true
		}
	}
	return false
}

// emit writes the current full assignment into the worker's one Occurrence —
// in pattern-node order, as dense indexes and as the VertexIDs they stand for
// — and lends it to the consumer, returning the consumer's continue/stop
// decision. The occurrence is borrowed: the next emit overwrites it, so a
// consumer copies what it wants to keep before it returns.
//
//gvet:hotpath
func (s *searchState) emit() bool {
	pl := s.pl
	images, indexes := s.occ.images, s.occ.indexes
	if ids := s.ids; ids != nil {
		for d := 0; d < pl.k; d++ {
			x := s.assign[d]
			indexes[pl.slot[d]] = x
			images[pl.slot[d]] = ids[x]
		}
	} else {
		for d := 0; d < pl.k; d++ {
			x := s.assign[d]
			indexes[pl.slot[d]] = x
			images[pl.slot[d]] = pl.snap.ID(x)
		}
	}
	s.emits++
	return s.yield(&s.occ)
}

// publishEmits moves the worker's emits since the last call into the
// enumeration counters: what the search delivered, and the occurrences that
// stands for. The drain loops call it once per drained shard, beside the root
// count, so emit itself only bumps a worker-local integer.
func (s *searchState) publishEmits() {
	mRepresentatives.Add(s.emits)
	mOccurrences.Add(s.emits * s.pl.weight)
	s.emits = 0
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
// false from any consumer stops all workers.
//
// The *Occurrence a consumer receives is borrowed: each worker owns one
// Occurrence, overwrites it for every occurrence it finds and lends it for
// the length of the call. A consumer folds it into its own state or copies
// out what it keeps (Images, Key, ...) before returning; EnumerateSnapshot is
// the consumer that keeps everything. While it is lent, IndexAt gives each
// image's dense index in snap, so a consumer whose state lives and dies with
// snap (core's per-pass MNI rows) never handles a VertexID.
//
// With an effective parallelism of one (Options.Parallelism == 1, a tiny
// input in auto mode, or a positive MaxOccurrences) everything runs on the
// calling goroutine in the deterministic sequential search order.
func EnumerateSnapshotWorkers(snap *graph.Snapshot, p *pattern.Pattern, opts Options, newYield func(worker int) func(*Occurrence) bool) {
	pl := newSearchPlan(snap, p, opts)
	if pl == nil {
		return
	}
	workers := opts.workers(pl.numRoots, pl.snap.NumVertices())

	if workers == 1 {
		yield := newYield(0)
		if opts.MaxOccurrences > 0 {
			yield = capYield(yield, opts.MaxOccurrences)
		}
		pl.drain(newSearchState(pl, yield, nil))
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
	// All consumers are created before any worker starts, so newYield may
	// safely grow shared registries without synchronization.
	yields := make([]func(*Occurrence) bool, workers)
	for w := range yields {
		yields[w] = newYield(w)
	}
	for w := 0; w < workers; w++ {
		yield := yields[w]
		start := w * numShards / workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newSearchState(pl, yield, &stop)
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
				st.publishEmits()
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
		st.publishEmits()
		if halt {
			return
		}
	}
}

// PinnedSearch is a compiled search whose root is prescribed: the
// occurrences of a pattern that map the node at a given position of
// p.Nodes() to one of a given set of dense indexes. Its search order is the
// planner's greedy growth from that node, so a run costs the neighbourhoods
// of the candidates, whatever the node — which is what an update wants: the
// occurrences through a handful of changed vertices (core.DeltaContext pins
// every node orbit's first position at them in turn).
//
// Everything that depends on the pattern alone or on a snapshot's statistics
// — the order, the per-depth constraints, the symmetry bounds, the kernel
// slots and one search state — is compiled once, by NewPinnedSearch, and
// every Run only binds the snapshot it is handed. A search order changes how
// fast a run is, never what it delivers, so an order fixed against one
// snapshot's statistics serves its successors: a caller recompiles when the
// statistics have moved far, not per run.
//
// With sym nil every such occurrence is delivered. With sym the pattern's
// Symmetry, the occurrences of one instance that agree on the root's image
// are one coset of the root position's stabiliser in Aut(P), and the search
// delivers one of them (Symmetry.below), never entering the branches of the
// others: per candidate x, one representative of every instance that maps a
// node of the root's orbit to x. As under Options.Symmetry, nothing may depend
// on which occurrence that is.
//
// A PinnedSearch is not safe for concurrent use: its runs share one search
// state. Each core.DeltaContext owns its searches and runs them one at a time.
type PinnedSearch struct {
	pl *searchPlan
	st *searchState
}

// NewPinnedSearch compiles the search of p pinned at position root of
// p.Nodes(), ordered from snap's statistics, under sym (nil for the full
// search). It retains nothing of snap.
func NewPinnedSearch(snap *graph.Snapshot, p *pattern.Pattern, sym *Symmetry, root int) *PinnedSearch {
	m := newPatternModel(p)
	order := growOrder(m, newPlannerStats(snap, m), root)
	below, weight := make([][]int, len(order)), uint64(1)
	if sym != nil {
		stabiliser := sym.stabiliser(root)
		below, weight = sym.below(order, stabiliser), uint64(len(stabiliser))
	}
	pl := compilePlan(snap, m, order, below, weight)
	st := newSearchState(pl, nil, nil)
	pl.snap, st.ids = nil, nil
	return &PinnedSearch{pl: pl, st: st}
}

// Root returns the pattern position the search is pinned at.
func (ps *PinnedSearch) Root() int { return ps.pl.slot[0] }

// Run streams, on the calling goroutine and in the deterministic sequential
// order of the compiled search, the occurrences of the pattern in snap that
// map the pinned node to one of the given dense indexes of snap (sorted
// ascending, none twice; those failing the node's label or degree constraint
// are skipped). The *Occurrence lent to yield is borrowed, as in
// EnumerateSnapshotWorkers; returning false stops the run.
//
// Each run binds snap afresh: the root buckets are rebuilt and every memoized
// candidate run is dropped, because a run is keyed by its anchor's dense
// index and that index names another vertex — or the same vertex with
// another neighbour row — on another snapshot. On return the search holds
// no reference to snap or yield.
func (ps *PinnedSearch) Run(snap *graph.Snapshot, candidates []int32, yield func(*Occurrence) bool) {
	if len(candidates) == 0 {
		return
	}
	pl, st := ps.pl, ps.st
	pl.snap = snap
	pl.restrictRoots(candidates)
	for i := range st.slots {
		st.slots[i].anchor = -1
	}
	st.ids, st.yield = singleShardIDs(snap), yield
	pl.drain(st)
	pl.snap, st.ids, st.yield = nil, nil, nil
}

// capYield wraps a consumer so that enumeration stops after max occurrences
// have been delivered.
func capYield(yield func(*Occurrence) bool, max int) func(*Occurrence) bool {
	count := 0
	return func(o *Occurrence) bool {
		if !yield(o) {
			return false
		}
		count++
		return count < max
	}
}

// EnumerateSnapshot returns all occurrences of pattern p in snap, in the
// canonical deterministic order (see SortOccurrences). It is the one
// materializer on top of the streaming engine: each worker's borrowed
// occurrences are copied out, the per-worker buckets are sorted concurrently
// and merged, so the result is identical for every Parallelism setting and
// every shard geometry, and the returned occurrences are the caller's to
// keep. With a positive MaxOccurrences it returns exactly the first
// MaxOccurrences occurrences of the sequential search order.
func EnumerateSnapshot(snap *graph.Snapshot, p *pattern.Pattern, opts Options) []*Occurrence {
	// Accumulate each worker's stream as pointer-free image chunks and
	// materialize the Occurrence structs afterwards in one exact-size pass.
	// Compared to appending per-occurrence pointers this keeps GC
	// write-barrier traffic out of the hot consumer. The chunks have a fixed
	// capacity and are never regrown: repeatedly re-growing one flat log
	// would allocate ~5x the final size in copies (Go grows large slices by
	// 1.25x), and on a busy heap that garbage alone forces extra collection
	// cycles mid-run.
	const chunkOccs = 4096 // occurrences per image chunk
	type bucket struct {
		chunks [][]graph.VertexID
		nodes  []pattern.NodeID
		k      int // images per occurrence
		n      int // total occurrences
	}
	var buckets []*bucket
	EnumerateSnapshotWorkers(snap, p, opts, func(int) func(*Occurrence) bool {
		b := &bucket{}
		buckets = append(buckets, b)
		return func(o *Occurrence) bool {
			if b.nodes == nil {
				b.nodes = o.nodes
				b.k = len(o.images)
			}
			cur := len(b.chunks) - 1
			if cur < 0 || len(b.chunks[cur])+b.k > cap(b.chunks[cur]) {
				b.chunks = append(b.chunks, make([]graph.VertexID, 0, chunkOccs*b.k))
				cur++
			}
			b.chunks[cur] = append(b.chunks[cur], o.images...)
			b.n++
			return true
		}
	})
	slices := make([][]*Occurrence, len(buckets))
	for i, b := range buckets {
		if b.k == 0 {
			continue
		}
		occs := make([]Occurrence, b.n)
		ptrs := make([]*Occurrence, b.n)
		j := 0
		for _, c := range b.chunks {
			for off := 0; off < len(c); off += b.k {
				occs[j].nodes = b.nodes
				occs[j].images = c[off : off+b.k : off+b.k]
				ptrs[j] = &occs[j]
				j++
			}
		}
		slices[i] = ptrs
	}
	return mergeSortedOccurrences(slices)
}

// mergeSortedOccurrences sorts each bucket of occurrences concurrently and
// merges the sorted buckets into one slice in the canonical order. It is the
// materialization tail of EnumerateSnapshot: bucket sorting
// parallelizes across cores, leaving only the final k-way merge sequential.
// The merge keeps a binary min-heap over the bucket heads, so it costs
// O(total log buckets) comparisons rather than a per-element scan of every
// bucket.
func mergeSortedOccurrences(buckets [][]*Occurrence) []*Occurrence {
	buckets = nonEmpty(buckets)
	switch len(buckets) {
	case 0:
		return nil
	case 1:
		SortOccurrences(buckets[0])
		return buckets[0]
	}
	var wg sync.WaitGroup
	total := 0
	for _, b := range buckets {
		total += len(b)
		wg.Add(1)
		go func(b []*Occurrence) {
			defer wg.Done()
			SortOccurrences(b)
		}(b)
	}
	wg.Wait()

	// Binary min-heap of bucket indexes, keyed by each bucket's head.
	heap := make([]int, len(buckets))
	for i := range heap {
		heap[i] = i
	}
	less := func(a, b int) bool { return buckets[heap[a]][0].Compare(buckets[heap[b]][0]) < 0 }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(heap) && less(l, min) {
				min = l
			}
			if r < len(heap) && less(r, min) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}

	out := make([]*Occurrence, 0, total)
	for len(heap) > 0 {
		b := heap[0]
		out = append(out, buckets[b][0])
		buckets[b] = buckets[b][1:]
		if len(buckets[b]) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	return out
}

// nonEmpty drops empty buckets in place.
func nonEmpty(buckets [][]*Occurrence) [][]*Occurrence {
	out := buckets[:0]
	for _, b := range buckets {
		if len(b) > 0 {
			out = append(out, b)
		}
	}
	return out
}
