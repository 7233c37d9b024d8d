package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// DeltaContext keeps the streamed aggregates of a (graph, pattern) pair —
// occurrence count, distinct-instance count and the per-node MNI domains
// — alive across graph mutations, so support questions can be
// re-answered after an update without re-enumerating the whole graph.
//
// It is the measure-level continuation of the graph layer's incremental
// refreeze: where FreezeSharded rebuilds only the rows a mutation made stale,
// DeltaContext re-enumerates only the instances through the vertices it
// touched. The construction follows the dynamic query-answering discipline of
// Berkholz, Keppeler and Schweikardt ("Answering FO+MOD queries under
// updates"): the maintained state is a refcounted table (a multiplicity per
// projected tuple), keyed by VertexID because it outlives every snapshot it
// was computed on, each update batch is turned into exact insert/delete
// deltas against it, and what an update costs is bounded by the neighbourhood
// of the change, not by the database.
//
// A DeltaContext retains the snapshot it last synchronized on and absorbs one
// Batch at a time: the mutations since then, the snapshot after them, and the
// batch's dirty vertices — every endpoint of an added or removed edge, every
// added or removed vertex — as dense indexes of either side (a removed vertex
// exists only on the old side, an added one only on the new). An instance the
// batch created uses an added edge or vertex, an instance it destroyed used a
// removed one, so both have a dirty vertex among their images; every other
// instance is the same subgraph on both sides. The delta rule of incremental
// view maintenance then says what to do: add the instances of the new snapshot
// that touch a dirty vertex (the plus pass), subtract those of the old one
// (the minus pass), leave the rest alone. Because the state is refcounted, the
// subtraction is exact — stale contributions are removed entry by entry, not
// approximated — and an instance the batch left alone is added and subtracted
// entry for entry.
//
// A pass finds the instances touching a dirty vertex by rooting the search
// there rather than by filtering a wider enumeration. For the first position
// j₀ of every node orbit of Aut(P) it runs an isomorph.PinnedSearch with j₀
// pinned at the side's dirty indexes D, under the pattern's symmetry: the
// occurrences of an instance I that map j₀ to x are one coset of j₀'s
// stabiliser whenever x is an image of j₀'s orbit, and the pinned search
// delivers one occurrence per coset, so over all orbits exactly one
// representative arrives per pair (I, x ∈ V(I) ∩ D) — an instance's vertex is
// an image of exactly one orbit. The pass counts a representative iff its root
// image is the smallest dirty index among its images, which keeps one of those
// pairs per instance: every instance touching D is counted once, as one
// representative, into one row per node orbit (table.go), exactly as a
// complete streaming pass counts it. What a pass adds for an instance with
// representative f is one to (orbit(j), f(j)) for every pattern node j; for
// another occurrence f∘σ of the same instance that is one to (orbit(σ(j)),
// f(σ(j))), the same entries summed in another order — so the two passes of a
// refresh need not agree on which occurrence stands for an instance, and will
// not when the planner orders the searches differently on the two snapshots.
// The search stays at instance level on purpose: the occurrence-level rule
// "the first dirty position wins, divide by |Aut(P)|" is exact too, but at a
// dirty hub of degree d it walks the d⁴ ordered leaf tuples of a 4-leaf star
// where the pinned, symmetry-broken search walks the C(d, 4) stars.
//
// The searches are compiled once per context, not once per pass: rebuild
// orders each from its snapshot's statistics when the context opens and again
// after every saturating batch, and a pass only runs them, each run binding
// the side's snapshot (isomorph.PinnedSearch.Run). What a pass counts does not
// depend on the search order, so an order planned on an earlier snapshot
// costs at most speed; and a refresh pays for the instances through its dirty
// vertices, not for planning seventy patterns' searches again.
//
// Nothing a pass counts goes through a table of its own: every counted
// representative is applied to the maintained state where the search hands it
// over (deltaPass.yield, domainState.apply), so a pass costs the instances
// through the dirty vertices — to find and to write — and nothing sized by a
// neighbourhood or by the graph.
//
// An occurrence f touching a dirty vertex f(a) has every image f(b) within
// dist_P(a, b) <= diam(P) hops of it, because pattern edges map onto data
// edges. So the side's mutation ball of radius diam(P) — every vertex within
// that many hops of a dirty one, BFS-grown over the side's own topology — is
// everywhere the two passes can reach, and its size is the measure of how
// local a batch is. The size is all that is kept of it (Batch), and it is
// read twice: when either ball grows past half its graph (a mutation storm
// that saturates every shard), the context falls back to a from-scratch
// re-enumeration instead, which is cheaper than two nearly-full delta passes
// and keeps answers exact; and the two sizes summed are
// DeltaStats.LastBallVertices and one observation of the
// repro_delta_ball_vertices histogram, which the benchmark reads as
// core.delta_ball_vertices — the reason the breadth-first search is still run
// on batches far from saturation. The resulting aggregates are identical to a
// from-scratch streamed Context for every shard count and parallelism
// setting, under insertions and deletions alike.
//
// A context built by NewDeltaContext subscribes to the graph's mutation feed
// and Refresh makes its own one-context batch; one built by NewDeltaContextAt
// is handed its batches by an owner that tracks many patterns (the incremental
// miner) and prepares each batch once for all of them. Both apply it through
// Apply.
//
// A DeltaContext is not safe for concurrent use: Refresh, Apply and the read
// accessors must not race with each other or with mutations of the
// underlying graph, mirroring the Graph's own reader contract, and its
// compiled searches are one search state each. A Batch is
// read-only once built, so any number of contexts may apply one concurrently.
type DeltaContext struct {
	g    *graph.Graph
	p    *pattern.Pattern
	opts Options

	feed *graph.MutationFeed // nil when the owner hands the batches in
	snap *graph.Snapshot     // the snapshot the state is synchronized with

	// counter runs every pass: the pattern's symmetry, derived once, and the
	// orbit-row layout of state.
	counter *instanceCounter
	// state is what every pass writes: the live instance count and the
	// refcounted, VertexID-keyed MNI domains, one row per node orbit.
	state *domainState
	// radius is the pattern's diameter, the radius of the mutation balls whose
	// sizes decide between the delta passes and a rebuild.
	radius int
	// searches[r] is the delta passes' search pinned at the first node
	// position of orbit r, compiled by rebuild and run by every pass.
	searches []*isomorph.PinnedSearch

	stats DeltaStats
}

// DeltaStats counts the maintenance work a DeltaContext has done; tests and
// benchmarks use it to assert which path a refresh took.
type DeltaStats struct {
	// Refreshes is the number of Refresh and Apply calls, including no-op
	// ones.
	Refreshes int
	// DeltaRefreshes counts refreshes applied as a plus and a minus delta
	// pass rooted at the batch's dirty vertices.
	DeltaRefreshes int
	// FullRebuilds counts refreshes that fell back to from-scratch
	// re-enumeration (saturating mutation batches).
	FullRebuilds int
	// LastBallVertices is the combined mutation-ball size of the most recent
	// delta refresh: the number of vertices within the pattern's diameter of
	// a dirty vertex, summed over both sides.
	LastBallVertices int
	// PassRepresentatives is the number of representatives the delta passes'
	// pinned searches have emitted, and PassCounted the number of them the
	// passes counted — the others were instances through two or more dirty
	// vertices, met again at a larger one. Their ratio is the share of a
	// pass's search that was useful.
	PassRepresentatives, PassCounted int
}

// NewDeltaContext builds the initial streamed aggregates of p in g (a full
// enumeration, exactly as a streaming NewContext would) and subscribes to
// g's mutation feed so later Refresh calls can maintain them incrementally.
// Close the returned context when it is no longer needed.
//
// Options.Streaming is implied — a DeltaContext never materializes
// occurrence lists or hypergraphs — and Options.MaxOccurrences must be zero:
// a truncated enumeration has no well-defined delta.
func NewDeltaContext(g *graph.Graph, p *pattern.Pattern, opts Options) (*DeltaContext, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph or pattern")
	}
	// Subscribe before freezing: a mutation applied between the two is then
	// in the first batch rather than lost.
	feed := g.Subscribe()
	d, err := NewDeltaContextAt(g, g.FreezeSharded(graph.FreezeOptions{Shards: opts.Shards}), p, opts)
	if err != nil {
		feed.Close()
		return nil, err
	}
	d.feed = feed
	return d, nil
}

// NewDeltaContextAt is NewDeltaContext for an owner that keeps many contexts
// over one graph in step: the aggregates are built on snap, which must be a
// frozen snapshot of g, the context subscribes to nothing, and the owner
// hands every later update to Apply as a Batch leading from the snapshot the
// context is synchronized with to the next — one feed, one refreeze and one
// breadth-first search per side per update, however many patterns are tracked.
// Options.Shards is ignored: the snapshots' own shard geometry applies.
func NewDeltaContextAt(g *graph.Graph, snap *graph.Snapshot, p *pattern.Pattern, opts Options) (*DeltaContext, error) {
	if g == nil || snap == nil || p == nil {
		return nil, fmt.Errorf("core: nil graph or pattern")
	}
	if opts.MaxOccurrences != 0 {
		return nil, fmt.Errorf("core: DeltaContext does not support MaxOccurrences (a truncated enumeration has no exact delta)")
	}
	opts.Streaming = true
	d := &DeltaContext{g: g, p: p, opts: opts, snap: snap, counter: newInstanceCounter(p), radius: patternDiameter(p)}
	d.rebuild(snap)
	return d, nil
}

// Close unsubscribes the context from the graph's mutation feed, if it has
// one. The aggregates remain readable but stop tracking further mutations.
func (d *DeltaContext) Close() {
	if d.feed != nil {
		d.feed.Close()
	}
}

// Refresh synchronizes the maintained aggregates with every graph mutation
// since the previous Refresh (or since construction): the one-context case of
// Apply, on a batch made of the context's own feed. With no pending mutations
// it is a no-op. Like all graph reads it must not race with the graph's
// mutation methods. A context built by NewDeltaContextAt has no feed to drain
// and is refreshed by its owner's batches alone.
func (d *DeltaContext) Refresh() error {
	if d.feed == nil {
		return fmt.Errorf("core: Refresh on a DeltaContext without a mutation feed; its owner applies batches")
	}
	muts := d.feed.Drain()
	if len(muts) == 0 {
		d.stats.Refreshes++
		mDeltaRefreshes.Inc()
		return nil
	}
	newSnap := d.g.FreezeSharded(graph.FreezeOptions{Shards: d.opts.Shards})
	return d.Apply(NewBatch(d.snap, newSnap, muts, d.radius))
}

// Radius returns the radius of the mutation balls the context reads the sizes
// of: the pattern's diameter. A Batch must be prepared for at least it.
func (d *DeltaContext) Radius() int { return d.radius }

// Apply folds one update batch into the maintained aggregates and moves the
// context on to the batch's new snapshot. The batch must lead away from the
// snapshot the context is synchronized with and must have been prepared for
// at least the context's Radius. Apply reads the batch and writes only the
// context, so the contexts sharing a batch may apply it concurrently.
func (d *DeltaContext) Apply(b *Batch) error {
	if b.old.snap != d.snap {
		return fmt.Errorf("core: batch does not start at the snapshot the DeltaContext of %s is synchronized with", d.p)
	}
	d.stats.Refreshes++
	mDeltaRefreshes.Inc()
	d.snap = b.new.snap

	// Each side has its own mutation ball: with deletions in the batch,
	// neither snapshot's edge set contains the other's, so distances differ
	// between them and a single transferred ball would under-cover one side.
	ballNew, okNew := b.new.ballSize(d.radius)
	ballOld, okOld := b.old.ballSize(d.radius)
	if !okNew || !okOld {
		// Saturating batch: a ball covers most of its graph, so two delta
		// passes would cost more than one full one. Rebuild the state from
		// scratch; answers stay exact either way.
		d.rebuild(b.new.snap)
		d.stats.FullRebuilds++
		mDeltaFull.Inc()
		return nil
	}
	d.stats.DeltaRefreshes++
	d.stats.LastBallVertices = ballNew + ballOld
	mDeltaApplied.Inc()
	mDeltaBall.Observe(float64(d.stats.LastBallVertices))

	// Plus pass: the instances of the new graph through a dirty vertex — every
	// instance the batch added plus the survivors of the mutated region.
	d.pass(&b.new, +1)

	// Minus pass: the same of the retained pre-mutation snapshot — exactly
	// the contributions already present in the state, every instance the
	// batch destroyed included. It runs second, so no refcount is negative
	// in transit.
	d.pass(&b.old, -1)
	return nil
}

// pass applies to the state, sign times each, the instances of d's pattern in
// the side's snapshot that touch one of its dirty indexes: for the first
// position of every node orbit a run of the context's compiled search pinned
// there, at the dirty indexes, counting what arrives rooted at its smallest
// dirty image (deltaPass.yield). A side with no dirty vertex has no roots and
// the searches return at once. It runs on the calling goroutine whatever
// Options.Parallelism says: the roots are the batch's few dirty vertices, and
// the owner of many contexts fans out across contexts instead.
func (d *DeltaContext) pass(s *batchSide, sign int) {
	dp := deltaPass{state: d.state, sign: sign, dirty: s.dirty}
	yield := dp.yield
	for _, search := range d.searches {
		dp.root = search.Root()
		search.Run(s.snap, s.dirty, yield)
	}
	d.stats.PassRepresentatives += dp.emitted
	d.stats.PassCounted += dp.counted
	mPassRepresentatives.Add(uint64(dp.emitted))
	mPassCounted.Add(uint64(dp.counted))
}

// deltaPass is the consumer of one delta pass's pinned searches: the state it
// writes and the sign it writes with, the side's sorted dirty indexes and the
// pattern position the search now running is pinned at.
type deltaPass struct {
	state            *domainState
	sign             int
	dirty            []int32
	root             int
	emitted, counted int
}

// yield counts a representative iff its root image is the smallest dirty
// index among its images, and applies what it counts to the state. The pinned
// searches deliver an instance once per dirty vertex it touches, rooted
// there; this keeps the one rooted lowest.
//
//gvet:hotpath
func (dp *deltaPass) yield(o *isomorph.Occurrence) bool {
	dp.emitted++
	x := o.IndexAt(dp.root)
	for i := 0; i < o.Len(); i++ {
		if y := o.IndexAt(i); y < x {
			if _, dirty := slices.BinarySearch(dp.dirty, y); dirty {
				return true
			}
		}
	}
	dp.counted++
	dp.state.apply(o, dp.sign)
	return true
}

// Batch is one update of a graph prepared for every DeltaContext that has to
// absorb it: the snapshot before and the snapshot after, and per side the
// batch's dirty vertices as sorted dense indexes and the size of the mutation
// ball around them at every radius up to the one asked for. Everything a
// context needs that does not depend on its pattern is computed here, once,
// so an owner of seventy contexts pays for one dirty set and one
// breadth-first search per side, not seventy; and nothing in it changes after
// NewBatch returns, so the contexts may apply it from several goroutines at
// once.
type Batch struct {
	old, new batchSide
}

// batchSide is one snapshot's half of a Batch.
type batchSide struct {
	snap *graph.Snapshot
	// dirty is the batch's dirty vertices that exist in snap, as sorted dense
	// indexes; never nil.
	dirty []int32
	// ballSizes[r] is the number of vertices within r hops of a dirty one, for
	// every radius up to the largest whose ball holds at most half of snap's
	// vertices, capped at the radius the batch was prepared for; empty when
	// the dirty set alone is larger than that.
	ballSizes []int
}

// NewBatch prepares the update that leads from snapshot old to snapshot new
// by the given mutations, for contexts whose radii (DeltaContext.Radius) are
// at most maxRadius.
//
// The dirty vertex set is every vertex incident to mutated structure. An
// instance gained by the batch must touch it (it uses an added edge or an
// added vertex), an instance lost by the batch must touch it too (it used a
// removed edge or vertex), and the set is one list of VertexIDs translated
// into each side's indexes, so the old and new snapshots agree on which
// shared instances touch it — which is what makes the signed cancellation of
// a refresh exact.
func NewBatch(old, new *graph.Snapshot, muts []graph.Mutation, maxRadius int) *Batch {
	dirty := make([]graph.VertexID, 0, 2*len(muts))
	for _, m := range muts {
		switch m.Kind {
		case graph.MutVertexAdded, graph.MutVertexRemoved:
			dirty = append(dirty, m.U)
		case graph.MutEdgeAdded, graph.MutEdgeRemoved:
			dirty = append(dirty, m.U, m.V)
		}
	}
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	return &Batch{old: newBatchSide(old, dirty, maxRadius), new: newBatchSide(new, dirty, maxRadius)}
}

// newBatchSide translates the batch's sorted dirty VertexIDs into snap's
// dense indexes, skipping the vertices snap does not have (IndexOf is
// monotone, so the result is sorted), and grows the ball around them by one
// breadth-first search, noting how many vertices it has reached at every
// radius. The search stops at maxRadius or once the ball passes half the
// graph — the point where a full rebuild is cheaper than two delta passes —
// whichever comes first. Nothing here is sized by the graph.
func newBatchSide(snap *graph.Snapshot, dirty []graph.VertexID, maxRadius int) batchSide {
	s := batchSide{snap: snap, dirty: make([]int32, 0, len(dirty)), ballSizes: make([]int, 0, maxRadius+1)}
	for _, v := range dirty {
		if i, inSnap := snap.IndexOf(v); inSnap {
			s.dirty = append(s.dirty, i)
		}
	}
	limit := snap.NumVertices() / 2
	visited := make(map[int32]struct{}, 4*len(s.dirty))
	for _, i := range s.dirty {
		visited[i] = struct{}{}
	}
	frontier := s.dirty
	for r := 0; r <= maxRadius; r++ {
		if r > 0 {
			var next []int32
			for _, i := range frontier {
				for _, nb := range snap.NeighborsAt(i) {
					if _, seen := visited[nb]; !seen {
						visited[nb] = struct{}{}
						next = append(next, nb)
					}
				}
			}
			frontier = next
		}
		if len(visited) > limit {
			break
		}
		s.ballSizes = append(s.ballSizes, len(visited))
	}
	return s
}

// ballSize returns the size of the side's mutation ball of the given
// radius: the number of vertices within that many hops of a dirty one, which
// is everywhere an image of an instance touching a dirty vertex can lie when
// the radius is its pattern's diameter. It reports ok=false when the ball
// exceeds half the graph.
func (s *batchSide) ballSize(radius int) (size int, ok bool) {
	if radius >= len(s.ballSizes) {
		return 0, false
	}
	return s.ballSizes[radius], true
}

// patternDiameter returns the largest shortest-path distance between two
// nodes of p, by one BFS per node.
func patternDiameter(p *pattern.Pattern) int {
	nodes := p.Nodes()
	diameter := 0
	dist := make([]int, len(nodes))
	for src := range nodes {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, nb := range p.Neighbors(nodes[u]) {
				if w, _ := slices.BinarySearch(nodes, nb); dist[w] < 0 {
					dist[w] = dist[u] + 1
					diameter = max(diameter, dist[w])
					queue = append(queue, w)
				}
			}
		}
	}
	return diameter
}

// rebuild discards the maintained state and recomputes it — a complete
// enumeration of snap folded into an empty state — and compiles the delta
// passes' pinned searches against snap's statistics, one per node orbit.
func (d *DeltaContext) rebuild(snap *graph.Snapshot) {
	d.state = newDomainState(d.counter.rowLayout)
	d.state.fold(d.counter.accumulate(snap, d.opts.Parallelism))
	d.searches = d.searches[:0]
	for i, r := range d.counter.rowOf {
		if r == len(d.searches) {
			d.searches = append(d.searches, isomorph.NewPinnedSearch(snap, d.p, d.counter.sym, i))
		}
	}
}

// Graph returns the underlying data graph.
func (d *DeltaContext) Graph() *graph.Graph { return d.g }

// Pattern returns the maintained query pattern.
func (d *DeltaContext) Pattern() *pattern.Pattern { return d.p }

// NumOccurrences returns the maintained occurrence count: |Aut(P)| for every
// maintained instance.
func (d *DeltaContext) NumOccurrences() int { return d.counter.occurrences(d.state.count) }

// NumInstances returns the maintained distinct-instance count.
func (d *DeltaContext) NumInstances() int { return d.state.count }

// MNIDomainSizes returns, aligned with Pattern().Nodes(), the maintained MNI
// domain size of every pattern node as a fresh slice.
func (d *DeltaContext) MNIDomainSizes() []int { return d.state.sizes() }

// Stats returns the maintenance counters accumulated so far.
func (d *DeltaContext) Stats() DeltaStats { return d.stats }

// Context materializes the current aggregates as a streaming-mode Context,
// the shape every measure consumes: MNI and the raw counts read the live
// domain tables through it exactly as they would read a from-scratch
// streamed context. The returned value is an immutable copy — later
// Refreshes do not change it — and costs O(pattern size), not a scan of the
// tables.
func (d *DeltaContext) Context() *Context {
	return &Context{
		g:              d.g,
		p:              d.p,
		streaming:      true,
		numOccurrences: d.NumOccurrences(),
		numInstances:   d.NumInstances(),
		domainSizes:    d.MNIDomainSizes(),
	}
}

// String returns a compact summary of the maintained state.
func (d *DeltaContext) String() string {
	return fmt.Sprintf("DeltaContext(pattern k=%d, %d occurrences, %d instances, %d delta refreshes, %d full rebuilds)",
		d.p.Size(), d.NumOccurrences(), d.NumInstances(), d.stats.DeltaRefreshes, d.stats.FullRebuilds)
}
