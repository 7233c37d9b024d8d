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
// updates"): each update batch is turned into exact insert/delete deltas
// against the maintained state, and what an update costs is bounded by the
// neighbourhood of the change, not by the database. The state is the cold
// pass's own shape (table.go): the instance count and, per node orbit, one
// presence bit per vertex of the snapshot the context is synchronized with.
//
// A DeltaContext retains the snapshot it last synchronized on and absorbs one
// Batch at a time: the mutations since then, the snapshot after them, and per
// side the edges and vertices the batch added or removed, as dense indexes of
// that side (a removed edge or vertex exists only on the old side, an added
// one only on the new). An instance the batch created uses an added edge or
// vertex, an instance it destroyed used a removed one, and every other
// instance is the same subgraph, with the same labels, on both sides. The
// delta rule of incremental view maintenance then says what to do: add the
// instances of the new snapshot that use mutated structure (the plus pass),
// subtract those of the old one (the minus pass), leave the rest alone. The
// count takes both exactly. A presence bit cannot be subtracted: MNI asks only
// whether some instance maps a node of the orbit to the vertex, and the minus
// pass cannot tell the last such instance from one of many. So it records
// every image of a destroyed instance as a suspect, and after both passes each
// distinct suspect is re-checked on the new snapshot (recheck): the bit stays
// if a search pinned at the vertex's own edges meets an instance that still
// maps a node of the orbit there, and is cleared otherwise. What a refresh
// pays for that is the suspects' neighbourhoods, usually one search step each.
//
// Edges suffice to find those instances. RemoveVertex records the removal of
// every edge at the vertex before its own, and a vertex is never relabelled in
// place, so every edge at an added or removed vertex is an added or removed
// edge of that side: an instance of a connected pattern of two or more nodes
// that uses a mutated vertex uses a mutated edge. A one-node pattern has no
// edge; the instances a batch changed are the side's mutated vertices of its
// label, its passes apply those without a search, and a suspect is re-checked
// by its label alone.
//
// A pass finds the instances using a mutated edge by rooting the search at
// the edge rather than by filtering a wider enumeration. For the first arc
// (a, b) of every edge orbit of Aut(P) it runs an isomorph.PinnedSearch with
// (a, b) pinned at the side's mutated edges, under the pattern's symmetry: the
// occurrences of an instance I that map (a, b) onto one data arc are one coset
// of the pointwise stabiliser of a and b, and the search delivers one per
// coset, trying a data edge in one orientation when an automorphism reverses
// (a, b) and in both otherwise. So over all orbits exactly one representative
// arrives per pair (I, e), e a mutated edge I maps a pattern edge onto — that
// pattern edge lies in exactly one orbit. The pass counts a representative iff
// no pattern edge maps onto a mutated edge with a smaller key
// (isomorph.EdgeKey) than the one it is pinned at, which keeps one of those
// pairs per instance, and applies what it counts: every instance that uses
// mutated structure is applied once, as one representative, into one row per
// node orbit (table.go), exactly as rebuild's complete pass counts it. What
// a pass writes for an instance with representative f is (orbit(j), f(j)) for
// every pattern node j; for another occurrence f∘σ of the same instance that
// is (orbit(σ(j)), f(σ(j))), the same entries in another order — so the two
// passes of a refresh need not agree on which occurrence stands for an
// instance, and will not when the planner orders the searches differently on
// the two snapshots. The search stays at instance level on
// purpose: the occurrence-level rule "the first pinned arc wins, divide by
// |Aut(P)|" is exact too, but at a mutated hub–leaf edge of a hub of degree d
// it walks the (d − 1)(d − 2)(d − 3) ordered leaf triples of a 4-leaf star
// where the pinned, symmetry-broken search walks the C(d − 1, 3) stars.
//
// An instance that uses no mutated structure is never met. Its +1 and its −1
// would be the same entries; a search rooted at the mutated edges' ends rather
// than at the edges would meet every such bystander through them, on both
// sides, to write none of it.
//
// The searches are compiled once per context, not once per pass: rebuild
// orders each from its snapshot's statistics when the context opens and again
// after every saturating batch, and a pass only runs them, each run binding
// the side's snapshot (isomorph.PinnedSearch.Run). What a pass counts does not
// depend on the search order, so an order planned on an earlier snapshot
// costs at most speed; and a refresh pays for the instances through its
// mutated edges, not for planning seventy patterns' searches again. The
// re-checks run the same searches, pinned at a suspect's edges, and only those
// of the edge orbits that touch the suspect's node orbit (Probe: their work is
// counted apart from the passes').
//
// Nothing a pass counts goes through a table of its own: every representative
// is applied to the maintained state where the search hands it over
// (deltaPass.yield), so a pass costs the instances the batch changed, found
// once per mutated edge they use, and nothing sized by a neighbourhood or by
// the graph. The rows are over the dense indexes of the snapshot the context
// is synchronized with; a batch that inserts or removes vertices moves them
// onto the new snapshot's indexes between its passes (domainState.remap),
// which costs ⌈n/64⌉ words a row and a lookup per member: a vertex batch is
// the one update whose cost grows with the graph, orbits·n/64 words a
// context.
//
// The batch's dirty vertices are the ends of its mutated edges and its
// mutated vertices. An occurrence f touching a dirty vertex f(a) has every
// image f(b) within dist_P(a, b) <= diam(P) hops of it, because pattern edges
// map onto data edges. So the side's mutation ball of radius diam(P) — every vertex within
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
	// state is what every pass writes: the live instance count and the MNI
	// domains, one presence row per node orbit over snap's dense indexes.
	state *domainState
	// radius is the pattern's diameter, the radius of the mutation balls whose
	// sizes decide between the delta passes and a rebuild.
	radius int
	// searches[r] is the delta passes' search pinned at the first arc of
	// edge orbit r, compiled by rebuild and run by every pass.
	searches []*isomorph.PinnedSearch
	// edges is the pattern's edges as pairs of node positions, the form a
	// pass reads an occurrence's edge images in; empty for a one-node
	// pattern, whose passes read the mutated vertices instead.
	edges [][2]int
	// dp is the consumer of the pass now running and yield its bound method,
	// made once with the context so that starting a pass allocates nothing.
	dp    deltaPass
	yield func(*isomorph.Occurrence) bool
	// suspects is the minus pass's (row, index) pairs (suspectKey), kept
	// between refreshes so that recording them reuses one buffer.
	suspects []uint64
	// probe is the consumer of a re-check's searches and found its bound
	// method; around is the suspect's incident edges a search is pinned at
	// (aroundFor). All three are reused by every re-check.
	probe  recheck
	found  func(*isomorph.Occurrence) bool
	around []uint64
	// sizes is Apply's copy of the rows' sizes before the batch, which it
	// compares with theirs after.
	sizes []int

	stats DeltaStats
}

// DeltaStats counts the maintenance work a DeltaContext has done; tests and
// benchmarks use it to assert which path a refresh took.
type DeltaStats struct {
	// Refreshes is the number of Refresh and Apply calls, including no-op
	// ones.
	Refreshes int
	// DeltaRefreshes counts refreshes applied as a plus and a minus delta
	// pass rooted at the batch's mutated edges.
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
	// passes counted — the others were instances using two or more mutated
	// edges, met again at a larger one. A one-node pattern's pass emits and
	// counts its mutated vertices of the pattern's label.
	PassRepresentatives, PassCounted int
	// PassApplied is the number of representatives the passes applied to the
	// maintained state: every one they counted, the instances that use an
	// edge or a vertex the batch added or removed.
	PassApplied int
	// Rechecks is the number of distinct (node orbit, vertex) pairs the minus
	// passes found in a destroyed instance and the re-checks searched for on
	// the new snapshot, and RecheckCleared the number of them no instance
	// mapped the orbit to any more, taken out of their domains.
	Rechecks, RecheckCleared int
}

// NewDeltaContext builds the initial streamed aggregates of p in g (a full
// enumeration, exactly as a streaming NewContext would) and subscribes to
// g's mutation feed so later Refresh calls can maintain them incrementally.
// Close the returned context when it is no longer needed.
//
// Options.Streaming is implied: a DeltaContext never materializes occurrence
// lists or hypergraphs.
func NewDeltaContext(g *graph.Graph, p *pattern.Pattern, opts Options) (*DeltaContext, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph or pattern")
	}
	// Subscribe before freezing: a mutation applied between the two is then
	// in the first batch rather than lost.
	feed := g.Subscribe()
	d, _, err := NewDeltaContextAt(g, g.FreezeSharded(graph.FreezeOptions{Shards: opts.Shards}), p, opts, nil)
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
//
// The complete pass that fills the state is confined to masks, exactly as
// NewDomainContext's search is (isomorph.Options.Masks, aligned with
// p.Nodes(); nil for none): masks that hold every node's images in every
// occurrence on snap leave the state what it is without them. Only this first
// pass is confined; a saturating batch's rebuild and every delta pass search
// the whole snapshot. The pattern's MNI domain of every node on snap comes back
// as a mask over snap, read off the pass table — the incremental miner
// confines the next level's first passes with them.
func NewDeltaContextAt(g *graph.Graph, snap *graph.Snapshot, p *pattern.Pattern, opts Options, masks []isomorph.Mask) (*DeltaContext, []isomorph.Mask, error) {
	if g == nil || snap == nil || p == nil {
		return nil, nil, fmt.Errorf("core: nil graph or pattern")
	}
	d := &DeltaContext{g: g, p: p, opts: opts, snap: snap, counter: newInstanceCounter(p), radius: patternDiameter(p), edges: edgePositions(p)}
	d.yield = d.dp.yield
	d.probe.rowOf = d.counter.rowOf
	d.found = d.probe.yield
	return d, d.rebuild(snap, masks), nil
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
	_, err := d.Apply(NewBatch(d.snap, newSnap, muts, d.radius))
	return err
}

// Radius returns the radius of the mutation balls the context reads the sizes
// of: the pattern's diameter. A Batch must be prepared for at least it.
func (d *DeltaContext) Radius() int { return d.radius }

// Apply folds one update batch into the maintained aggregates and moves the
// context on to the batch's new snapshot. The batch must lead away from the
// snapshot the context is synchronized with and must have been prepared for
// at least the context's Radius. Apply reads the batch and writes only the
// context, so the contexts sharing a batch may apply it concurrently.
//
// It reports whether the batch moved the instance count or the size of any
// MNI domain: when it did not, every figure Context carries is what it was
// before, so an owner that keeps a measure of them need not compute it again.
func (d *DeltaContext) Apply(b *Batch) (bool, error) {
	if b.old.snap != d.snap {
		return false, fmt.Errorf("core: batch does not start at the snapshot the DeltaContext of %s is synchronized with", d.p)
	}
	count := d.state.count
	d.sizes = append(d.sizes[:0], d.state.size...)
	d.apply(b)
	return d.state.count != count || !slices.Equal(d.state.size, d.sizes), nil
}

// apply is Apply on a batch that starts at the context's snapshot.
func (d *DeltaContext) apply(b *Batch) {
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
		d.rebuild(b.new.snap, nil)
		d.stats.FullRebuilds++
		mDeltaFull.Inc()
		return
	}
	d.stats.DeltaRefreshes++
	d.stats.LastBallVertices = ballNew + ballOld
	mDeltaApplied.Inc()
	mDeltaBall.Observe(float64(d.stats.LastBallVertices))

	// Minus pass: the instances of the retained pre-mutation snapshot that use
	// mutated structure — all of them already in the state, every instance
	// the batch destroyed included. It runs first,
	// while the rows still have the old snapshot's indexes, so every image it
	// subtracts can be checked against its row.
	d.suspects = d.pass(&b.old, false, d.suspects[:0])

	// The rows and the suspects move onto the new snapshot's indexes; a
	// suspect whose vertex the batch removed went with it.
	d.suspects = d.state.remap(b.to, b.new.snap.NumVertices(), d.suspects)

	// Plus pass: the same of the new graph — every instance the batch added,
	// and those it removed and added back.
	d.pass(&b.new, true, nil)

	d.recheck(b.new.snap)
}

// pass applies to the state the instances of d's pattern in the side's
// snapshot that use an edge the batch added or removed — adding them on the
// plus side, subtracting them on the minus side, where it appends the images
// of each to suspects and returns them (domainState.subtract): for the
// first arc of every edge orbit of Aut(P) a run of the context's compiled
// search pinned there, at the side's mutated edges, counting what arrives
// pinned at its smallest mutated edge (deltaPass.yield). A one-node pattern
// has no edge to pin; its instances are the side's mutated vertices of its
// label, applied without a search. A side with no mutated edge has nothing to
// pin and the searches return at once. It runs on the calling goroutine
// whatever Options.Parallelism says: the arcs are the batch's few edges, and
// the owner of many contexts fans out across contexts instead.
func (d *DeltaContext) pass(s *batchSide, plus bool, suspects []uint64) []uint64 {
	dp := &d.dp
	*dp = deltaPass{state: d.state, plus: plus, suspects: suspects, edges: s.edges, patternEdges: d.edges}
	if len(d.edges) == 0 {
		dp.applyVertices(s.snap, s.vertices, d.p.LabelOf(d.counter.nodes[0]))
	}
	for _, search := range d.searches {
		dp.arc[0], dp.arc[1] = search.Arc()
		search.Run(s.snap, s.edges, d.yield)
	}
	// A pass applies everything it counts.
	d.stats.PassRepresentatives += dp.emitted
	d.stats.PassCounted += dp.counted
	d.stats.PassApplied += dp.counted
	mPassRepresentatives.Add(uint64(dp.emitted))
	mPassCounted.Add(uint64(dp.counted))
	mPassApplied.Add(uint64(dp.counted))
	suspects, dp.suspects = dp.suspects, nil
	return suspects
}

// deltaPass is the consumer of one delta pass's pinned searches: the state it
// writes, whether it adds or subtracts, the minus side's suspects so far, the
// side's sorted mutated edges, the pattern's edges as position pairs and the
// pattern arc the search now running is pinned at.
type deltaPass struct {
	state            *domainState
	plus             bool
	suspects         []uint64
	edges            []uint64
	patternEdges     [][2]int
	arc              [2]int
	emitted, counted int
}

// yield counts a representative iff no pattern edge maps onto a mutated edge
// with a smaller key than the one its arc is pinned at, and applies what it
// counts to the state. The pinned searches deliver an instance once per
// mutated edge it uses, pinned there; the rule keeps the one pinned at the
// smallest.
//
//gvet:hotpath
func (dp *deltaPass) yield(o *isomorph.Occurrence) bool {
	dp.emitted++
	pinned := isomorph.EdgeKey(o.IndexAt(dp.arc[0]), o.IndexAt(dp.arc[1]))
	for _, e := range dp.patternEdges {
		if k := isomorph.EdgeKey(o.IndexAt(e[0]), o.IndexAt(e[1])); k < pinned {
			if _, mutated := slices.BinarySearch(dp.edges, k); mutated {
				return true
			}
		}
	}
	dp.counted++
	if dp.plus {
		dp.state.add(o)
	} else {
		dp.suspects = dp.state.subtract(o, dp.suspects)
	}
	return true
}

// applyVertices is a one-node pattern's pass: every mutated vertex of the
// side that carries the pattern's label is an instance the batch added (on
// the new side) or removed (on the old), and nothing else is.
func (dp *deltaPass) applyVertices(snap *graph.Snapshot, vertices []int32, label graph.Label) {
	for _, x := range vertices {
		if snap.LabelAt(x) != label {
			continue
		}
		dp.emitted++
		dp.counted++
		if dp.plus {
			dp.state.addVertex(x)
		} else {
			dp.suspects = dp.state.subtractVertex(snap, x, dp.suspects)
		}
	}
}

// recheck settles the suspects the minus pass recorded, now over snap's
// indexes: each distinct (row, index) keeps its bit iff some instance in snap
// still maps a node of the row's orbit to the vertex. For a pattern with
// edges that instance uses an edge at the vertex whose pattern edge touches
// the orbit, so the context's searches of the edge orbits that touch it, run
// over the vertex's incident edges, meet a representative of it, and the
// first one whose images put the vertex in the orbit settles the suspect (the
// images of an orbit are the same set for every occurrence of an instance,
// table.go). A one-node pattern's instance at the vertex is the vertex
// itself, so its label settles it.
func (d *DeltaContext) recheck(snap *graph.Snapshot) {
	slices.Sort(d.suspects)
	d.suspects = slices.Compact(d.suspects)
	rc, s := &d.probe, d.state
	cleared, roots := 0, 0
	for _, key := range d.suspects {
		r, x := int(key>>32), int32(uint32(key))
		held := false
		if len(d.edges) == 0 {
			held = snap.LabelAt(x) == d.p.LabelOf(d.counter.nodes[0])
		} else {
			rc.row, rc.x, rc.held = r, x, false
			for _, search := range d.searches {
				a, b := search.Arc()
				if s.rowOf[a] != r && s.rowOf[b] != r {
					continue
				}
				roots += search.Probe(snap, d.aroundFor(snap, x, r, a, b), d.found)
				if rc.held {
					break
				}
			}
			held = rc.held
		}
		if !held {
			s.clear(r, x)
			cleared++
		}
	}
	d.stats.Rechecks += len(d.suspects)
	d.stats.RecheckCleared += cleared
	mRechecks.Add(uint64(len(d.suspects)))
	mRecheckCleared.Add(uint64(cleared))
	mRecheckRoots.Add(uint64(roots))
}

// aroundFor returns the edges at dense index x of snap that the re-check of
// row r's suspect x hands the search pinned at arc (a, b): those whose other
// end carries the label of the arc's other node, which is all an occurrence
// putting x in the row through that arc can use — b's label when a is in the
// row, a's when b is, either when both are. It refills d.around.
func (d *DeltaContext) aroundFor(snap *graph.Snapshot, x int32, r, a, b int) []uint64 {
	rowOf := d.state.rowOf
	la, lb := d.p.LabelOf(d.counter.nodes[a]), d.p.LabelOf(d.counter.nodes[b])
	inA, inB := rowOf[a] == r, rowOf[b] == r
	d.around = d.around[:0]
	for _, y := range snap.NeighborsAt(x) {
		if l := snap.LabelAt(y); inA && l == lb || inB && l == la {
			d.around = append(d.around, isomorph.EdgeKey(x, y))
		}
	}
	return d.around
}

// recheck is the consumer of a re-check's searches: it looks for an
// occurrence that maps a node of row's orbit to dense index x, and stops the
// search at the first.
type recheck struct {
	rowOf []int
	row   int
	x     int32
	held  bool
}

// yield records whether o maps a node of the row's orbit to x and stops the
// search if it does.
//
//gvet:hotpath
func (rc *recheck) yield(o *isomorph.Occurrence) bool {
	for i, r := range rc.rowOf {
		if r == rc.row && o.IndexAt(i) == rc.x {
			rc.held = true
			return false
		}
	}
	return true
}

// edgePositions returns p's edges as pairs of positions in p.Nodes().
func edgePositions(p *pattern.Pattern) [][2]int {
	nodes := p.Nodes()
	edges := p.Edges()
	out := make([][2]int, len(edges))
	for k, e := range edges {
		u, _ := slices.BinarySearch(nodes, e.U)
		v, _ := slices.BinarySearch(nodes, e.V)
		out[k] = [2]int{u, v}
	}
	return out
}

// Batch is one update of a graph prepared for every DeltaContext that has to
// absorb it: the snapshot before and the snapshot after, and per side the
// batch's mutated edges and vertices as sorted dense indexes and the size of
// the mutation ball around the dirty vertices at every radius up to the one
// asked for. Everything a context needs that does not depend on its pattern
// is computed here, once, so an owner of seventy contexts pays for one
// translation, one breadth-first search per side and one index map, not
// seventy; and nothing in it changes after NewBatch returns, so the contexts
// may apply it from several goroutines at once.
type Batch struct {
	old, new batchSide
	// to maps each dense index of the old side to the same vertex's on the
	// new side, -1 for a vertex the batch removed; nil when the batch
	// inserted and removed no vertex, so the two sides' indexes agree.
	to []int32
}

// batchSide is one snapshot's half of a Batch.
type batchSide struct {
	snap *graph.Snapshot
	// vertices is the vertices the batch added or removed that exist in snap,
	// and edges the edges it added or removed whose endpoints both do, packed
	// by isomorph.EdgeKey; both sorted dense indexes.
	vertices []int32
	edges    []uint64
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
// The mutated edges are those named by an edge mutation and the mutated
// vertices those named by a vertex mutation, each one list of VertexIDs
// translated into each side's indexes: an instance gained by the batch uses
// an added one, an instance lost by it used a removed one, and a pass is
// rooted at them (DeltaContext.pass). The dirty vertex set is every vertex
// incident to mutated structure, translated the same way; the balls around it
// are what decides between the passes and a rebuild. When some mutated vertex
// exists on one side only, the batch inserted or removed it and the two
// sides' indexes differ, so the batch also maps one onto the other
// (indexMap).
func NewBatch(old, new *graph.Snapshot, muts []graph.Mutation, maxRadius int) *Batch {
	dirty := make([]graph.VertexID, 0, 2*len(muts))
	var vertices []graph.VertexID
	var edges []graph.Edge
	for _, m := range muts {
		switch m.Kind {
		case graph.MutVertexAdded, graph.MutVertexRemoved:
			dirty = append(dirty, m.U)
			vertices = append(vertices, m.U)
		case graph.MutEdgeAdded, graph.MutEdgeRemoved:
			dirty = append(dirty, m.U, m.V)
			edges = append(edges, graph.Edge{U: m.U, V: m.V})
		}
	}
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	slices.Sort(vertices)
	vertices = slices.Compact(vertices)
	return &Batch{old: newBatchSide(old, dirty, vertices, edges, maxRadius), new: newBatchSide(new, dirty, vertices, edges, maxRadius), to: indexMap(old, new, vertices)}
}

// indexMap returns, for every dense index of old, the dense index of the same
// vertex in new, -1 for a vertex new does not have; nil when none of the
// batch's mutated vertices exists on one side only, so the two snapshots have
// the same vertices at the same indexes. Both number their vertices in
// VertexID order, so one merge of the two ID sequences pairs them up.
func indexMap(old, new *graph.Snapshot, vertices []graph.VertexID) []int32 {
	if !slices.ContainsFunc(vertices, func(v graph.VertexID) bool {
		_, inOld := old.IndexOf(v)
		_, inNew := new.IndexOf(v)
		return inOld != inNew
	}) {
		return nil
	}
	to := make([]int32, old.NumVertices())
	y, n := int32(0), int32(new.NumVertices())
	for x := range to {
		v := old.ID(int32(x))
		for y < n && new.ID(y) < v {
			y++
		}
		to[x] = -1
		if y < n && new.ID(y) == v {
			to[x] = y
			y++
		}
	}
	return to
}

// newBatchSide translates the batch's sorted dirty and mutated VertexIDs and
// its mutated edges into snap's dense indexes, skipping what snap does not
// have (IndexOf is monotone, so the vertex lists stay sorted), and measures
// the mutation ball around the dirty indexes (ballSizes).
func newBatchSide(snap *graph.Snapshot, dirty, vertices []graph.VertexID, edges []graph.Edge, maxRadius int) batchSide {
	s := batchSide{snap: snap, vertices: indexesIn(snap, vertices), edges: make([]uint64, 0, len(edges))}
	for _, e := range edges {
		u, okU := snap.IndexOf(e.U)
		v, okV := snap.IndexOf(e.V)
		if okU && okV {
			s.edges = append(s.edges, isomorph.EdgeKey(u, v))
		}
	}
	slices.Sort(s.edges)
	s.edges = slices.Compact(s.edges)
	s.ballSizes = ballSizes(snap, indexesIn(snap, dirty), maxRadius)
	return s
}

// indexesIn returns the dense indexes in snap of the given sorted VertexIDs
// that snap has, sorted; never nil.
func indexesIn(snap *graph.Snapshot, ids []graph.VertexID) []int32 {
	out := make([]int32, 0, len(ids))
	for _, v := range ids {
		if i, inSnap := snap.IndexOf(v); inSnap {
			out = append(out, i)
		}
	}
	return out
}

// ballSizes grows the ball around the sorted dirty indexes by one
// breadth-first search and returns how many vertices it has reached at every
// radius. The search stops at maxRadius or once the ball passes half the
// graph — the point where a full rebuild is cheaper than two delta passes —
// whichever comes first. The ball is a sorted slice: each level sorts and
// compacts the frontier's neighbours and merges them against it, so what the
// search allocates is proportional to the ball and the frontier's degrees,
// and nothing is sized by the graph. Every buffer is grown to what its level
// needs before it is filled, so none is copied while it grows.
func ballSizes(snap *graph.Snapshot, dirty []int32, maxRadius int) []int {
	sizes := make([]int, 0, maxRadius+1)
	limit := snap.NumVertices() / 2
	ball := slices.Clone(dirty)
	frontier := dirty
	var merged, reached, next []int32
	for r := 0; r <= maxRadius; r++ {
		if r > 0 {
			degrees := 0
			for _, i := range frontier {
				degrees += snap.DegreeAt(i)
			}
			reached = slices.Grow(reached[:0], degrees)
			for _, i := range frontier {
				reached = append(reached, snap.NeighborsAt(i)...)
			}
			slices.Sort(reached)
			reached = slices.Compact(reached)
			merged, next = mergeBall(slices.Grow(merged[:0], len(ball)+len(reached)), slices.Grow(next[:0], len(reached)), ball, reached)
			ball, merged = merged, ball
			frontier = next
		}
		if len(ball) > limit {
			break
		}
		sizes = append(sizes, len(ball))
	}
	return sizes
}

// mergeBall merges the sorted ball and the sorted, duplicate-free reached
// indexes into merged, and appends to fresh those of reached the ball did not
// hold: the next frontier, sorted.
func mergeBall(merged, fresh, ball, reached []int32) ([]int32, []int32) {
	a, b := 0, 0
	for a < len(ball) && b < len(reached) {
		switch x, y := ball[a], reached[b]; {
		case x < y:
			merged = append(merged, x)
			a++
		case x > y:
			merged = append(merged, y)
			fresh = append(fresh, y)
			b++
		default:
			merged = append(merged, x)
			a++
			b++
		}
	}
	merged = append(merged, ball[a:]...)
	fresh = append(fresh, reached[b:]...)
	return append(merged, reached[b:]...), fresh
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
	adj := p.Adjacency()
	diameter := 0
	dist := make([]int, len(adj))
	for src := range adj {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, w := range adj[u] {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					diameter = max(diameter, dist[w])
					queue = append(queue, w)
				}
			}
		}
	}
	return diameter
}

// rebuild discards the maintained state and recomputes it — the same
// complete enumeration of snap a cold context runs, confined to masks (nil for
// none), whose table the state copies — and compiles the delta passes' pinned
// searches against snap's statistics, one per edge orbit. It returns the MNI
// domain of every pattern node on snap, aligned with p.Nodes(): the pass
// table's own masks, which the state does not share.
func (d *DeltaContext) rebuild(snap *graph.Snapshot, masks []isomorph.Mask) []isomorph.Mask {
	all, _ := d.counter.accumulate(snap, d.opts.Parallelism, masks, false)
	d.state = newDomainState(all)
	d.searches = d.searches[:0]
	for _, arc := range d.counter.sym.EdgeOrbits(d.p) {
		d.searches = append(d.searches, isomorph.NewPinnedSearch(snap, d.p, d.counter.sym, arc[0], arc[1]))
	}
	return all.table.domains()
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
