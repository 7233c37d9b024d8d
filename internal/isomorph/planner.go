package isomorph

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Statistics-light search-order planner. The cost of the backtracking search
// is exponential in how late selective constraints bind, so instead of the
// pattern-only heuristic order (highest pattern degree first; see naiveOrder)
// the planner ranks pattern vertices by an estimate of how many data vertices
// can match them, computed purely from snapshot statistics that are O(shards)
// to read: per-label cardinalities from the per-shard label partitions and
// the mean degree. Planning therefore costs microseconds per (snapshot,
// pattern) pair — there is no sampling, no histogram build, no data scan —
// which is the regime where greedy statistics-light ordering beats cost-based
// optimization for pattern queries.
//
// Estimation formula. With n data vertices, mean degree d̄ = 2|E|/n, and
// cnt(ℓ) vertices carrying label ℓ:
//
//	root(v)              = cnt(ℓv) · min(1, d̄/deg(v))
//	extend(v, a anchors) = d̄ · (cnt(ℓv)/n) · min(1, d̄/deg(v)) · min(1, d̄/n)^(a-1)
//
// where deg(v) is v's pattern degree (a lower bound on any matching data
// vertex's degree, so by Markov's inequality at most a d̄/deg(v) fraction of
// vertices qualify), the d̄ factor is the expected length of the anchor's
// neighbor run the candidates are drawn from, cnt/n is the label selectivity
// of that run, and each anchor beyond the first multiplies by the edge
// probability d̄/n. The root is the vertex minimizing root(v); the order then
// grows greedily, always appending the connected vertex (≥1 ordered
// neighbor, so the search order stays connected) with the smallest extend
// estimate — selective constraints bind first, and every extra anchor both
// shrinks the estimate and prunes harder.
//
// The planner falls back to naiveOrder when the snapshot is empty (no
// statistics to consult) or when the cost model (orderCost, the expected
// number of partial assignments the search visits) does not score the planned
// order strictly cheaper than the naive one. The tie case matters: the naive order visits pattern vertices in
// sorted-node order whenever degrees don't distinguish them, which makes the
// sequential engine's emission order coincide with the canonical occurrence
// order and turns the canonical sort behind EnumerateSnapshot into a free
// prescan.
// Either way the chosen
// order only affects enumeration speed, never results: occurrences are sets
// keyed by sorted pattern nodes, and every consumer (canonical sort in
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
		adj:    make([][]int, len(nodes)),
	}
	for i, v := range nodes {
		m.labels[i] = p.LabelOf(v)
		m.deg[i] = p.Degree(v)
		nbs := p.Neighbors(v)
		pos := make([]int, len(nbs))
		for j, nb := range nbs {
			pos[j] = nodePos(nodes, nb)
		}
		m.adj[i] = pos
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
	cnt    []int // cnt[i]: data vertices carrying m.labels[i]
}

// newPlannerStats reads the statistics for every pattern position; the only
// per-label cost is Snapshot.LabelCount, O(shards) each.
func newPlannerStats(snap *graph.Snapshot, m *patternModel) *plannerStats {
	st := &plannerStats{
		n:      snap.NumVertices(),
		avgDeg: snap.AvgDegree(),
		cnt:    make([]int, len(m.nodes)),
	}
	for i := range m.nodes {
		st.cnt[i] = snap.LabelCount(m.labels[i])
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

// plannedOrder builds the data-aware search order: the root minimizes the
// root estimate, every later depth minimizes the extend estimate among
// connected candidates. Ties break toward more anchors, then higher pattern
// degree, then smaller label, then smaller node ID — all explicit, so the
// order is deterministic. Returns positions into m.nodes.
func plannedOrder(m *patternModel, st *plannerStats) []int {
	k := len(m.nodes)
	if k == 0 {
		return nil
	}
	start := 0
	startEst := st.rootEstimate(m, 0)
	for i := 1; i < k; i++ {
		est := st.rootEstimate(m, i)
		if est < startEst ||
			(est == startEst && (m.deg[i] > m.deg[start] ||
				(m.deg[i] == m.deg[start] && m.labels[i] < m.labels[start]))) {
			start, startEst = i, est
		}
	}
	return growOrder(m, st, start)
}

// growOrder is plannedOrder's greedy growth from a given root position: the
// whole of the planned order when the root is prescribed rather than chosen,
// as it is for a search pinned at a pattern node, which NewPinnedSearch grows
// once and every run of the compiled search then follows.
func growOrder(m *patternModel, st *plannerStats, start int) []int {
	k := len(m.nodes)
	order := make([]int, 1, k)
	order[0] = start
	inOrder := make([]bool, k)
	inOrder[start] = true
	for len(order) < k {
		best, bestAnchors := -1, 0
		var bestEst float64
		for i := 0; i < k; i++ {
			if inOrder[i] {
				continue
			}
			anchors := m.orderedNeighbors(i, inOrder)
			if anchors == 0 {
				continue // keep the order connected
			}
			est := st.extendEstimate(m, i, anchors)
			if best < 0 || est < bestEst ||
				(est == bestEst && (anchors > bestAnchors ||
					(anchors == bestAnchors && (m.deg[i] > m.deg[best] ||
						(m.deg[i] == m.deg[best] && m.labels[i] < m.labels[best]))))) {
				best, bestEst, bestAnchors = i, est, anchors
			}
		}
		order = append(order, best)
		inOrder[best] = true
	}
	return order
}

// orderCost is the modeled size of the backtracking tree under the given
// search order: the sum over depths of the running product of per-depth
// candidate estimates. It is how chooseOrder compares candidate orders.
func orderCost(m *patternModel, st *plannerStats, order []int) float64 {
	cost, level := 0.0, 1.0
	inOrder := make([]bool, len(m.nodes))
	for d, i := range order {
		if d == 0 {
			level = st.rootEstimate(m, i)
		} else {
			level *= st.extendEstimate(m, i, m.orderedNeighbors(i, inOrder))
		}
		cost += level
		inOrder[i] = true
	}
	return cost
}

// chooseOrder resolves the search order for (snap, p): it builds the greedy
// data-aware order and keeps it only when its modeled tree cost (orderCost) is strictly below the naive pattern-only order's —
// under a symmetric label distribution the two orders model identically and
// the naive order wins the tie, which also preserves the sequential engine's
// sorted emission order (the naive order tends to match the sorted node
// order, making EnumerateSnapshot's canonical sort a no-op prescan). The naive
// order
// is also used when the snapshot is empty (no statistics to consult). The
// second return reports whether the planned order was chosen.
func chooseOrder(snap *graph.Snapshot, m *patternModel) ([]int, bool) {
	naive := naiveOrder(m)
	if snap.NumVertices() == 0 {
		return naive, false
	}
	st := newPlannerStats(snap, m)
	planned := plannedOrder(m, st)
	if orderCost(m, st, planned) < orderCost(m, st, naive) {
		return planned, true
	}
	return naive, false
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
	// LabelCount is the number of data vertices carrying Label.
	LabelCount int
	// Estimate is the planner's estimated candidate count at this depth (the
	// root estimate at depth zero, the extend estimate otherwise). It is
	// computed for the explained order even when the naive order was chosen.
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
	// snapshot, or the cost model did not score the planned order strictly
	// cheaper than the naive one.
	Planned bool
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
// search, returning the chosen order with per-depth candidate estimates. Of
// opts only Symmetry is read: it adds the ordering constraints a search under
// it applies (Automorphisms, Orbits, Below); the search order depends on the
// snapshot and pattern alone, and plain Options explain the full search. It powers the -explain flags of the gsupport and
// gminer CLIs.
func Explain(snap *graph.Snapshot, p *pattern.Pattern, opts Options) *PlanExplanation {
	m := newPatternModel(p)
	order, planned := chooseOrder(snap, m)
	st := newPlannerStats(snap, m)
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
	inOrder := make([]bool, len(m.nodes))
	for d, i := range order {
		anchors := m.orderedNeighbors(i, inOrder)
		step := PlanStep{
			Node:          m.nodes[i],
			Label:         m.labels[i],
			PatternDegree: m.deg[i],
			Anchors:       anchors,
			LabelCount:    st.cnt[i],
			Below:         below[d],
		}
		switch {
		case d == 0:
			step.Estimate = st.rootEstimate(m, i)
			step.Kernel = "roots"
		case anchors == 1:
			step.Estimate = st.extendEstimate(m, i, anchors)
			step.Kernel = "run-cache"
		default:
			step.Estimate = st.extendEstimate(m, i, anchors)
			step.Kernel = "gallop"
		}
		ex.Steps = append(ex.Steps, step)
		inOrder[i] = true
	}
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
	fmt.Fprintf(&b, "search order (%s; |V|=%d |E|=%d, %d root candidates)\n",
		mode, e.Vertices, e.Edges, e.RootCandidates)
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
