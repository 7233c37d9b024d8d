package isomorph

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Statistics-light search-order planner. The cost of the backtracking search
// is exponential in how late selective constraints bind, so instead of the
// pattern-only heuristic order (highest pattern degree first; see naiveOrder)
// the planner prices candidate orders by the work the kernels of enumerate.go
// would do under them, estimated purely from snapshot statistics that are
// O(shards) to read: per-label cardinalities from the per-shard label
// partitions and the mean degree. Planning therefore costs microseconds per
// (snapshot, pattern) pair — there is no sampling, no histogram build, no data
// scan — which is the regime where greedy statistics-light ordering beats
// cost-based optimization for pattern queries.
//
// Estimates. With n data vertices, mean degree d̄ = 2|E|/n, and cnt(ℓ)
// vertices carrying label ℓ:
//
//	root(v)              = cnt(ℓv) · min(1, d̄/deg(v))
//	extend(v, a anchors) = d̄ · (cnt(ℓv)/n) · min(1, d̄/deg(v)) · min(1, d̄/n)^(a-1) / (cut(v)+1)
//
// where deg(v) is v's pattern degree (a lower bound on any matching data
// vertex's degree, so by Markov's inequality at most a d̄/deg(v) fraction of
// vertices qualify), the d̄ factor is the expected length of the anchor's
// neighbour row the candidates are drawn from, cnt/n is the label selectivity
// of that row, and each anchor beyond the first multiplies by the edge
// probability d̄/n. cut(v) is the symmetry cut: under Options.Symmetry, the
// number of earlier depths whose image v's must lie above (Symmetry.below,
// the stabiliser chain of the prefix), zero in a full search — of the
// cut(v)+1 orderings of v's image and theirs one survives. A node confined to
// a mask (Options.Masks) is priced by the mask's size in place of cnt(ℓv):
// the miner's masks are sub-pattern domains, the node's real candidates.
//
// Work model. Under an order v0..v(k-1) the modeled number of assignments of
// depths 0..d is
//
//	level(0) = root(v0)      level(d) = level(d-1) · extend(vd)
//
// and an order's work is what the search reads and visits:
//
//	work = cnt(ℓv0) + Σ_d level(d)                           root scan, visits
//	     + Σ_slots min(level(a), level(d-1)) · d̄             memoized runs
//	     + Σ_multi-anchor depths level(d-1) · d̄              intersections
//
// A single-anchor depth d anchored at depth a builds its memoized run once
// per assignment of a that reaches it — at most level(a) and at most
// level(d-1) times — reading a row of about d̄ entries; depths whose (anchor
// depth, label, minDeg, mask) key coincides share one run (assignSlots), so
// the slot is charged once, at its first depth. A multi-anchor depth
// intersects two rows once per assignment of its parent. The row terms model
// what the enumeration counter repro_enum_scanned_total counts.
//
// Choice. From every root the planner grows an order greedily (pricer.grow),
// always appending the connected vertex (≥1 ordered neighbour, so the search
// order stays connected) with the smallest extend estimate, its symmetry cut
// included: selective constraints bind first, every extra anchor both shrinks
// the estimate and prunes harder, and an orbit-mate of a matched node comes
// early, where its ordering constraint cuts a level. The cheapest of the k
// grown orders is kept if its work is strictly below the naive order's; k
// greedy growths of O(k²) each keep planning in microseconds. A search pinned
// at an arc (NewPinnedSearch) grows from the arc with no symmetry cut
// (growOrder).
//
// The planner falls back to naiveOrder when the snapshot is empty (no
// statistics to consult) or when no grown order models strictly cheaper than
// the naive one. The tie case matters: the naive order visits pattern
// vertices in sorted-node order whenever degrees don't distinguish them,
// which makes the sequential engine's emission order coincide with the
// canonical occurrence order and turns the canonical sort behind
// EnumerateSnapshot into a free prescan. Either way the chosen order only
// affects enumeration speed, never results: occurrences are sets keyed by
// sorted pattern nodes, and every consumer (canonical sort in
// EnumerateSnapshot, the order-independent aggregates of core) is
// order-insensitive.

// patternModel is the position-indexed view of a pattern the order builders
// work on: everything is keyed by the vertex's position in the sorted node
// list, so the builders allocate a few int slices instead of per-call maps.
type patternModel struct {
	nodes  []pattern.NodeID
	labels []graph.Label
	deg    []int
	adj    [][]int // adjacency as positions into nodes
}

// newPatternModel indexes p by node position.
func newPatternModel(p *pattern.Pattern) *patternModel {
	nodes := p.Nodes()
	m := &patternModel{
		nodes:  nodes,
		labels: make([]graph.Label, len(nodes)),
		deg:    make([]int, len(nodes)),
		adj:    p.Adjacency(),
	}
	for i, v := range nodes {
		m.labels[i] = p.LabelOf(v)
		m.deg[i] = len(m.adj[i])
	}
	return m
}

// nodePos returns the position of v in the sorted node list.
func nodePos(nodes []pattern.NodeID, v pattern.NodeID) int {
	lo, hi := 0, len(nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nodes[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// orderedNeighbors counts how many of position i's pattern neighbors are
// already in the order.
func (m *patternModel) orderedNeighbors(i int, inOrder []bool) int {
	a := 0
	for _, nb := range m.adj[i] {
		if inOrder[nb] {
			a++
		}
	}
	return a
}

// naiveOrder is the pattern-only fallback order: start from the highest
// pattern degree (ties: smaller label, then smaller node ID) and grow by the
// most already-ordered neighbors (ties: smaller node ID). All tie-breaks are
// explicit and the scan runs over sorted positions, so the order is fully
// deterministic. Returns positions into m.nodes.
func naiveOrder(m *patternModel) []int {
	k := len(m.nodes)
	if k == 0 {
		return nil
	}
	start := 0
	for i := 1; i < k; i++ {
		if m.deg[i] > m.deg[start] ||
			(m.deg[i] == m.deg[start] && m.labels[i] < m.labels[start]) {
			start = i
		}
	}
	order := make([]int, 1, k)
	order[0] = start
	inOrder := make([]bool, k)
	inOrder[start] = true
	for len(order) < k {
		best, bestScore := -1, -1
		for i := 0; i < k; i++ {
			if inOrder[i] {
				continue
			}
			if score := m.orderedNeighbors(i, inOrder); score > bestScore {
				best, bestScore = i, score
			}
		}
		order = append(order, best)
		inOrder[best] = true
	}
	return order
}

// plannerStats are the snapshot statistics the planner estimates from.
type plannerStats struct {
	n      int
	avgDeg float64
	cnt    []int // cnt[i]: data vertices carrying m.labels[i], or in position i's mask
}

// newPlannerStats reads the statistics for every pattern position; the only
// per-label cost is Snapshot.LabelCount, O(shards) each. A position confined
// to a mask (Options.Masks, by position, nil for none) counts the mask's
// indexes instead: a real cardinality, where the label's count is an upper
// bound on it.
func newPlannerStats(snap *graph.Snapshot, m *patternModel, masks []Mask) plannerStats {
	st := plannerStats{
		n:      snap.NumVertices(),
		avgDeg: snap.AvgDegree(),
		cnt:    make([]int, len(m.nodes)),
	}
	for i := range m.nodes {
		if masks != nil && masks[i] != nil {
			st.cnt[i] = masks[i].Count()
		} else {
			st.cnt[i] = snap.LabelCount(m.labels[i])
		}
	}
	return st
}

// degFactor is the Markov bound min(1, d̄/deg) on the fraction of data
// vertices with degree at least deg.
//
//gvet:hotpath
func (st *plannerStats) degFactor(deg int) float64 {
	if deg <= 0 {
		return 1
	}
	if f := st.avgDeg / float64(deg); f < 1 {
		return f
	}
	return 1
}

// rootEstimate is the estimated number of label+degree pruned root candidates
// for position i.
//
//gvet:hotpath
func (st *plannerStats) rootEstimate(m *patternModel, i int) float64 {
	return float64(st.cnt[i]) * st.degFactor(m.deg[i])
}

// extendEstimate is the estimated number of candidates at a non-root depth
// matching position i with the given number of anchors into the order.
//
//gvet:hotpath
func (st *plannerStats) extendEstimate(m *patternModel, i, anchors int) float64 {
	est := st.avgDeg * (float64(st.cnt[i]) / float64(st.n)) * st.degFactor(m.deg[i])
	edgeP := st.avgDeg / float64(st.n)
	if edgeP > 1 {
		edgeP = 1
	}
	for a := 1; a < anchors; a++ {
		est *= edgeP
	}
	return est
}

// pricer grows search orders one position at a time and prices them under
// the work model as they grow. Its slices are carved from two allocations
// made once per planning call, so pricing every root's order costs what
// pricing one does.
type pricer struct {
	m     *patternModel
	st    plannerStats
	masks []Mask  // by position, nil for none
	perms [][]int // Aut(P) as position permutations; nil prices the full search

	order   []int // the order grown so far
	depthOf []int // depthOf[i]: depth of position i, -1 while unordered
	// cut[i] is position i's symmetry cut: the earlier depths whose image
	// bounds its own from below, the prefix's share of Symmetry.below.
	cut []int
	// group lists, as indexes into perms, the prefix's pointwise stabiliser:
	// the symmetry the next depth is left to break.
	group []int
	level []float64 // level[d]: modeled assignments of depths 0..d
	work  float64   // modeled work of order
}

func newPricer(m *patternModel, st plannerStats, masks []Mask, sym *Symmetry) pricer {
	k := len(m.nodes)
	p := pricer{m: m, st: st, masks: masks, level: make([]float64, k)}
	if sym != nil {
		p.perms = sym.perms
	}
	buf := make([]int, 3*k+len(p.perms))
	p.order, p.depthOf, p.cut, p.group = buf[:0:k], buf[k:2*k], buf[2*k:3*k], buf[3*k:]
	p.reset()
	return p
}

// reset empties the order.
func (p *pricer) reset() {
	p.order = p.order[:0]
	for i := range p.depthOf {
		p.depthOf[i], p.cut[i] = -1, 0
	}
	p.group = p.group[:len(p.perms)]
	for a := range p.group {
		p.group[a] = a
	}
	p.work = 0
}

// anchors counts position i's pattern neighbours ordered before depth d and
// returns the depth of the last of them.
func (p *pricer) anchors(i, d int) (n, depth int) {
	for _, nb := range p.m.adj[i] {
		if ad := p.depthOf[nb]; ad >= 0 && ad < d {
			n, depth = n+1, ad
		}
	}
	return n, depth
}

// estimate is position i's extend estimate with a anchors, divided by its
// symmetry cut.
func (p *pricer) estimate(i, a int) float64 {
	return p.st.extendEstimate(p.m, i, a) / float64(p.cut[i]+1)
}

// push appends position i to the order, adds what matching it costs to the
// work and returns its estimate: the root estimate at depth zero, the extend
// estimate with its symmetry cut after.
func (p *pricer) push(i int) float64 {
	d := len(p.order)
	var est float64
	if d == 0 {
		est = p.st.rootEstimate(p.m, i)
		p.level[0] = est
		p.work += float64(p.st.cnt[i]) + est
	} else {
		a, anchor := p.anchors(i, d)
		est = p.estimate(i, a)
		parent := p.level[d-1]
		p.level[d] = parent * est
		switch {
		case a > 1:
			p.work += parent * p.st.avgDeg
		case !p.sharesRun(i, d, anchor):
			p.work += min(p.level[anchor], parent) * p.st.avgDeg
		}
		p.work += p.level[d]
	}
	p.order = append(p.order, i)
	p.depthOf[i] = d
	p.breakSymmetry(i, d)
	return est
}

// sharesRun reports whether position i, matched at depth d with its one
// anchor at depth anchor, reads the memoized run of an earlier depth: one
// with the same single anchor, label, pattern degree and mask (assignSlots).
func (p *pricer) sharesRun(i, d, anchor int) bool {
	m := p.m
	for e := 1; e < d; e++ {
		j := p.order[e]
		if m.labels[j] != m.labels[i] || m.deg[j] != m.deg[i] {
			continue
		}
		if a, ad := p.anchors(j, e); a == 1 && ad == anchor &&
			(p.masks == nil || slices.Equal(p.masks[j], p.masks[i])) {
			return true
		}
	}
	return false
}

// breakSymmetry runs the round of Symmetry.below whose pivot is position i,
// matched at depth d: every other position of i's orbit under the prefix's
// stabiliser gains depth d in its cut, and the stabiliser shrinks to the
// automorphisms that fix i as well.
func (p *pricer) breakSymmetry(i, d int) {
	if len(p.group) <= 1 {
		return
	}
	kept := 0
	for _, a := range p.group {
		if mate := p.perms[a][i]; mate == i {
			p.group[kept] = a
			kept++
		} else if p.cut[mate] >= 0 {
			// Count the round once per mate: mark the mate's cut negative
			// until every automorphism of the round has been seen.
			p.cut[mate] = ^(p.cut[mate] + 1)
		}
	}
	p.group = p.group[:kept]
	for j, c := range p.cut {
		if c < 0 {
			p.cut[j] = ^c
		}
	}
}

// grow builds an order from the given connected prefix of positions and
// completes it greedily: each later depth takes the connected position with
// the smallest estimate. Ties break toward more anchors, then higher pattern
// degree, then smaller label, then smaller node ID — all explicit, so the
// order is deterministic.
func (p *pricer) grow(prefix ...int) {
	p.reset()
	for _, i := range prefix {
		p.push(i)
	}
	m := p.m
	for len(p.order) < len(m.nodes) {
		best, bestAnchors := -1, 0
		var bestEst float64
		for i := range m.nodes {
			if p.depthOf[i] >= 0 {
				continue
			}
			anchors, _ := p.anchors(i, len(p.order))
			if anchors == 0 {
				continue // keep the order connected
			}
			est := p.estimate(i, anchors)
			if best < 0 || est < bestEst ||
				(est == bestEst && (anchors > bestAnchors ||
					(anchors == bestAnchors && (m.deg[i] > m.deg[best] ||
						(m.deg[i] == m.deg[best] && m.labels[i] < m.labels[best]))))) {
				best, bestEst, bestAnchors = i, est, anchors
			}
		}
		p.push(best)
	}
}

// growOrder is the greedy growth from the given connected prefix of
// positions, priced for the full search: the rest of the order after a pinned
// arc (a, b), which NewPinnedSearch grows once and every run of the compiled
// search then follows.
func growOrder(m *patternModel, st plannerStats, prefix ...int) []int {
	p := newPricer(m, st, nil, nil)
	p.grow(prefix...)
	return p.order
}

// chooseOrder resolves the search order for (snap, p) under masks and sym
// (nil for none): it grows an order from every root and keeps the one of
// least modeled work, when that work is strictly below the naive
// pattern-only order's. Under a symmetric label distribution the two model
// alike and the naive order wins the tie, which also preserves the sequential
// engine's sorted emission order (the naive order tends to match the sorted
// node order, making EnumerateSnapshot's canonical sort a no-op prescan). The
// naive order is also used when the snapshot is empty (no statistics to
// consult). The second return reports whether a grown order was chosen.
func chooseOrder(snap *graph.Snapshot, m *patternModel, masks []Mask, sym *Symmetry) ([]int, bool) {
	naive := naiveOrder(m)
	if snap.NumVertices() == 0 {
		return naive, false
	}
	p := newPricer(m, newPlannerStats(snap, m, masks), masks, sym)
	for _, i := range naive {
		p.push(i)
	}
	best, least := -1, p.work
	for root := range m.nodes {
		p.grow(root)
		if p.work < least {
			best, least = root, p.work
		}
	}
	if best < 0 {
		return naive, false
	}
	// Grow the winner again, into the naive order's slice: the growth is
	// deterministic, and the naive order is not needed any more.
	p.grow(best)
	copy(naive, p.order)
	return naive, true
}

// PlanStep describes one depth of an explained search plan.
type PlanStep struct {
	// Node is the pattern node matched at this depth.
	Node pattern.NodeID
	// Label is the data label the node requires.
	Label graph.Label
	// PatternDegree is the node's degree in the pattern (the data-degree
	// lower bound enforced at this depth).
	PatternDegree int
	// Anchors is the number of earlier depths adjacent to this node (zero at
	// the root).
	Anchors int
	// LabelCount is the number of data vertices carrying Label, or the size
	// of the node's mask when the search is confined (Options.Masks).
	LabelCount int
	// Estimate is the planner's estimated candidate count at this depth: the
	// root estimate at depth zero, the extend estimate divided by the depth's
	// symmetry cut (one more than len(Below)) otherwise. It is computed for
	// the explained order even when the naive order was chosen.
	Estimate float64
	// Kernel names the inner-loop mechanism serving this depth: "roots"
	// (depth zero), "run-cache" (memoized single-anchor candidate run) or
	// "gallop" (galloping intersection of two anchor runs).
	Kernel string
	// Below lists the earlier depths whose image bounds this one from below:
	// the candidate scan at this depth starts above the largest dense index
	// assigned at any of them. It is how a search under Options.Symmetry finds
	// each instance once; empty at every depth of a full search.
	Below []int
}

// PlanExplanation reports the search order the enumeration engine would use
// for a (snapshot, pattern) pair, with the per-depth statistics that led to
// it. Produced by Explain; rendered by String.
type PlanExplanation struct {
	// Planned is false when the naive pattern-only order was used: empty
	// snapshot, or the work model did not score any grown order strictly
	// cheaper than the naive one.
	Planned bool
	// Work is the modeled work of the chosen order (see planner.go): the
	// neighbour-row entries its kernels read, its root scan and its visits,
	// the quantity the planner minimised.
	Work float64
	// Steps lists the chosen order, depth by depth.
	Steps []PlanStep
	// RootCandidates is the actual (not estimated) number of label+degree
	// pruned root candidates.
	RootCandidates int
	// Automorphisms is |Aut(P)| and Orbits the number of node orbits when the
	// plan is one under Options.Symmetry — the search then emits one
	// assignment for every Automorphisms occurrences, and its consumer keeps
	// Orbits rows — and both are zero for a full-search plan.
	Automorphisms, Orbits int
	// Vertices and Edges are the snapshot totals the estimates were computed
	// from.
	Vertices, Edges int
}

// Explain compiles the search plan of p against snap without running the
// search, returning the chosen order with per-depth candidate estimates and
// its modeled work. Of opts Symmetry and Masks are read, as the search reads
// them: Symmetry adds the ordering constraints a search under it applies
// (Automorphisms, Orbits, Below) and the cut they make in the estimates the
// order is chosen by, Masks replace the label counts of the positions they
// confine; plain Options explain the full search. It powers the -explain flags
// of the gsupport and gminer CLIs.
func Explain(snap *graph.Snapshot, p *pattern.Pattern, opts Options) *PlanExplanation {
	m := newPatternModel(p)
	opts.checkMasks(snap, len(m.nodes))
	order, planned := chooseOrder(snap, m, opts.Masks, opts.Symmetry)
	pr := newPricer(m, newPlannerStats(snap, m, opts.Masks), opts.Masks, opts.Symmetry)
	ex := &PlanExplanation{
		Planned:  planned,
		Steps:    make([]PlanStep, 0, len(order)),
		Vertices: snap.NumVertices(),
		Edges:    snap.NumEdges(),
	}
	if sym := opts.Symmetry; sym != nil {
		ex.Automorphisms, ex.Orbits = sym.Order(), sym.NumOrbits()
	}
	below := opts.below(order)
	for d, i := range order {
		anchors, _ := pr.anchors(i, d)
		step := PlanStep{
			Node:          m.nodes[i],
			Label:         m.labels[i],
			PatternDegree: m.deg[i],
			Anchors:       anchors,
			LabelCount:    pr.st.cnt[i],
			Estimate:      pr.push(i),
			Below:         below[d],
		}
		switch {
		case d == 0:
			step.Kernel = "roots"
		case anchors == 1:
			step.Kernel = "run-cache"
		default:
			step.Kernel = "gallop"
		}
		ex.Steps = append(ex.Steps, step)
	}
	ex.Work = pr.work
	if pl := newSearchPlan(snap, p, opts); pl != nil {
		ex.RootCandidates = pl.numRoots
	}
	return ex
}

// String renders the explanation as a small fixed-order table, one line per
// depth, suitable for CLI output.
func (e *PlanExplanation) String() string {
	var b strings.Builder
	mode := "planned"
	if !e.Planned {
		mode = "naive"
	}
	fmt.Fprintf(&b, "search order (%s; |V|=%d |E|=%d, %d root candidates, work %.1f)\n",
		mode, e.Vertices, e.Edges, e.RootCandidates, e.Work)
	switch {
	case e.Automorphisms == 1:
		b.WriteString("  symmetry: none; every occurrence is an instance of its own\n")
	case e.Automorphisms > 1:
		fmt.Fprintf(&b, "  symmetry: |Aut(P)|=%d, node orbits=%d; a streamed search emits one representative per instance, 1 of every %d occurrences\n",
			e.Automorphisms, e.Orbits, e.Automorphisms)
	}
	for d, s := range e.Steps {
		fmt.Fprintf(&b, "  depth %d: node %d label %d patternDeg %d anchors %d labelCount %d est %.1f kernel %s",
			d, s.Node, s.Label, s.PatternDegree, s.Anchors, s.LabelCount, s.Estimate, s.Kernel)
		if len(s.Below) > 0 {
			fmt.Fprintf(&b, " image above depths %v", s.Below)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
