package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// DeltaContext keeps the streamed aggregates of a (graph, pattern) pair —
// occurrence count, distinct-instance count and the per-node MNI domains
// — alive across graph mutations, so support questions can be
// re-answered after an update without re-enumerating the whole graph.
//
// It is the measure-level continuation of the graph layer's incremental
// refreeze: where FreezeSharded rebuilds only dirty CSR shards, DeltaContext
// re-enumerates only occurrences that can involve mutated structure. The
// construction follows the dynamic query-answering discipline of Berkholz,
// Keppeler and Schweikardt ("Answering FO+MOD queries under updates"): the
// maintained state is a refcounted table (a multiplicity per projected
// tuple), keyed by VertexID because it outlives every snapshot it was
// computed on, and each update batch is turned into exact insert/delete
// deltas against it.
//
// Mechanically, a DeltaContext subscribes to the graph's mutation feed and
// retains the snapshot it last synchronized on. Refresh drains the feed and,
// for a small update batch, runs two root-restricted enumerations, one per
// side of the mutation, each over that side's own mutation ball: every vertex
// within radius hops of a dirty vertex, where the radius is the pattern's
// diameter. An occurrence f touching a dirty vertex f(a) has every image f(b)
// within dist_P(a, b) <= diam(P) hops of it, because pattern edges map onto
// data edges — so the ball bounds where an affected occurrence can be rooted
// and holds all of its images, which is also what lets a pass count into rows
// the size of its ball (table.go). The dirty set is per side too: the batch's
// dirty VertexIDs are translated once into each snapshot's dense indexes — a
// removed vertex exists only on the old side, an added one only on the new —
// and occurrences are tested against it in index space.
//
// A plus-pass on the new snapshot counts every instance touching mutated
// structure, a minus-pass on the retained old snapshot counts the stale
// pre-mutation contributions of the same region — including every instance
// a removal destroyed — and the signed difference is folded into the
// refcounted state. Instances outside the balls are untouched on both sides
// and never re-enumerated. Because the state is refcounted, the subtraction
// is exact — stale contributions are removed entry by entry, not approximated.
//
// Every pass searches one representative occurrence per instance
// (isomorph.Options.Symmetry) and counts it into one row per node orbit, and
// the two passes of a refresh need not agree on which occurrence that is —
// they will not, when the planner orders the search differently on the two
// snapshots. What a pass adds for an instance with representative f is one to
// (orbit(j), f(j)) for every pattern node j; for another occurrence f∘σ of
// the same instance that is one to (orbit(j), f(σ(j))) = (orbit(σ(j)),
// f(σ(j))), the same entries summed in another order. Touching a dirty vertex
// and lying inside the ball are properties of the image as well. So an
// instance the batch left alone is added by the plus pass and subtracted by
// the minus pass entry for entry, whichever occurrences stood for it, and the
// state counts instances (occurrences are |Aut(P)| times that) without ever
// naming a representative. The resulting aggregates are identical to a
// from-scratch streamed Context for every shard count and parallelism
// setting, under insertions and deletions alike. When either ball grows past
// half its graph (a mutation storm that saturates every shard), Refresh falls
// back to a from-scratch re-enumeration instead, which is cheaper than two
// nearly-full delta passes and keeps answers exact.
//
// A DeltaContext is not safe for concurrent use: Refresh and the read
// accessors must not race with each other or with mutations of the
// underlying graph, mirroring the Graph's own reader contract.
type DeltaContext struct {
	g    *graph.Graph
	p    *pattern.Pattern
	opts Options

	feed *graph.MutationFeed
	snap *graph.Snapshot // the snapshot the state is synchronized with

	// counter runs every pass: the pattern's symmetry, derived once, and the
	// orbit-row layout of the pass tables and of state.
	counter *instanceCounter
	// state is what every pass is folded into: the live instance count and
	// the refcounted, VertexID-keyed MNI domains, one row per node orbit.
	state *domainState
	// radius is the pattern's diameter, the radius of every mutation ball.
	radius int

	stats DeltaStats
}

// DeltaStats counts the maintenance work a DeltaContext has done; tests and
// benchmarks use it to assert which path a refresh took.
type DeltaStats struct {
	// Refreshes is the number of Refresh calls, including no-op ones.
	Refreshes int
	// DeltaRefreshes counts refreshes applied as ball-restricted deltas.
	DeltaRefreshes int
	// FullRebuilds counts refreshes that fell back to from-scratch
	// re-enumeration (saturating mutation batches).
	FullRebuilds int
	// LastBallVertices is the combined mutation-ball size of the most recent
	// delta refresh: the number of candidate root vertices the plus-pass and
	// minus-pass were restricted to, summed over both sides.
	LastBallVertices int
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
	if g == nil || p == nil {
		return nil, fmt.Errorf("core: nil graph or pattern")
	}
	if opts.MaxOccurrences != 0 {
		return nil, fmt.Errorf("core: DeltaContext does not support MaxOccurrences (a truncated enumeration has no exact delta)")
	}
	opts.Streaming = true
	d := &DeltaContext{g: g, p: p, opts: opts, counter: newInstanceCounter(p), radius: patternDiameter(p)}
	d.feed = g.Subscribe()
	d.snap = g.FreezeSharded(graph.FreezeOptions{Shards: opts.Shards})
	d.rebuild(d.snap)
	return d, nil
}

// Close unsubscribes the context from the graph's mutation feed. The
// aggregates remain readable but stop tracking further mutations.
func (d *DeltaContext) Close() { d.feed.Close() }

// Refresh synchronizes the maintained aggregates with every graph mutation
// since the previous Refresh (or since construction). With no pending
// mutations it is a no-op. Like all graph reads it must not race with the
// graph's mutation methods.
func (d *DeltaContext) Refresh() error {
	muts := d.feed.Drain()
	d.stats.Refreshes++
	mDeltaRefreshes.Inc()
	if len(muts) == 0 {
		return nil
	}
	newSnap := d.g.FreezeSharded(graph.FreezeOptions{Shards: d.opts.Shards})

	// The dirty vertex set: every vertex incident to mutated structure. An
	// occurrence gained by the batch must touch it (a new occurrence uses an
	// added edge or an added vertex), an occurrence lost by the batch must
	// touch it too (a dead occurrence used a removed edge or vertex), and
	// the set is one list of VertexIDs translated into each side's indexes,
	// so old and new snapshots agree on which shared occurrences touch it —
	// which is what makes the signed cancellation below exact.
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
	dirtyNew, dirtyOld := dirtyIndexes(newSnap, dirty), dirtyIndexes(d.snap, dirty)

	// Each side gets its own mutation ball, BFS-grown over its own topology:
	// with deletions in the batch, neither snapshot's edge set contains the
	// other's, so distances differ between them and a single transferred ball
	// would under-cover one side. The plus-ball bounds where new-graph
	// occurrences touching dirty structure can be rooted; the minus-ball does
	// the same for the retained pre-mutation snapshot (a removed vertex still
	// exists there and seeds it).
	ballNew, okNew := d.mutationBall(newSnap, dirtyNew)
	ballOld, okOld := d.mutationBall(d.snap, dirtyOld)
	if !okNew || !okOld {
		// Saturating batch: a ball covers most of its graph, so two
		// restricted passes would cost more than one full one. Rebuild the
		// tables from scratch; answers stay exact either way.
		d.rebuild(newSnap)
		d.stats.FullRebuilds++
		mDeltaFull.Inc()
		d.snap = newSnap
		return nil
	}
	d.stats.DeltaRefreshes++
	d.stats.LastBallVertices = len(ballNew) + len(ballOld)
	mDeltaApplied.Inc()
	mDeltaBall.Observe(float64(d.stats.LastBallVertices))

	// Plus-pass: occurrences in the new graph rooted inside the new ball and
	// touching a dirty vertex. This covers every occurrence the batch added
	// plus the surviving occurrences of the mutated region.
	d.state.fold(d.pass(newSnap, ballNew, dirtyNew), +1)

	// Minus-pass: the mutated region's occurrences in the retained
	// pre-mutation snapshot — exactly the contributions already present in
	// the state, every occurrence the batch destroyed included.
	d.state.fold(d.pass(d.snap, ballOld, dirtyOld), -1)
	d.snap = newSnap
	return nil
}

// dirtyIndexes translates the batch's sorted dirty VertexIDs into snap's
// dense indexes, skipping the vertices snap does not have. IndexOf is
// monotone, so the result is sorted; it is never nil.
func dirtyIndexes(snap *graph.Snapshot, dirty []graph.VertexID) []int32 {
	indexes := make([]int32, 0, len(dirty))
	for _, v := range dirty {
		if i, inSnap := snap.IndexOf(v); inSnap {
			indexes = append(indexes, i)
		}
	}
	return indexes
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

// mutationBall collects the sorted dense indexes (in snap's index space) of
// every vertex within d.radius hops of one of the given sorted dirty indexes:
// the only places an affected occurrence can be rooted, and all the places
// its images can lie. It reports ok=false when the ball exceeds half the
// graph, the point where a full rebuild is cheaper than two delta passes.
func (d *DeltaContext) mutationBall(snap *graph.Snapshot, dirty []int32) ([]int32, bool) {
	limit := snap.NumVertices() / 2
	if len(dirty) > limit {
		return nil, false
	}
	visited := make(map[int32]bool, 4*len(dirty))
	for _, i := range dirty {
		visited[i] = true
	}
	// Seeding in index order makes the whole BFS visit order — and every
	// intermediate slice it builds — reproducible run to run.
	ball, frontier := slices.Clone(dirty), dirty
	for depth := 0; depth < d.radius && len(frontier) > 0; depth++ {
		var next []int32
		for _, i := range frontier {
			for _, nb := range snap.NeighborsAt(i) {
				if visited[nb] {
					continue
				}
				visited[nb] = true
				next = append(next, nb)
				ball = append(ball, nb)
				if len(ball) > limit {
					return nil, false
				}
			}
		}
		frontier = next
	}
	slices.Sort(ball)
	return ball, true
}

// pass counts, into a table over the ball, the instances of d's pattern in
// snap that are rooted in ball and touch one of the dirty indexes.
func (d *DeltaContext) pass(snap *graph.Snapshot, ball, dirty []int32) *accumulator {
	if len(ball) == 0 {
		// No dirty vertex exists on this side, so nothing of it changed; an
		// empty restriction must not read as "no restriction".
		return mergeWorkers(d.counter.rowLayout, nil)
	}
	return d.counter.accumulate(snap, d.opts.Parallelism, ball, dirty)
}

// rebuild discards the maintained state and recomputes it: the same fold, of
// a complete enumeration of snap into an empty state.
func (d *DeltaContext) rebuild(snap *graph.Snapshot) {
	d.state = newDomainState(d.counter.rowLayout)
	d.state.fold(d.counter.accumulate(snap, d.opts.Parallelism, nil, nil), +1)
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
