package hypergraph

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
)

// reference holds a hypergraph the way the solvers saw it before the dense
// view: edges as VertexID lists, incidence as a map. Its methods are the
// map- and matrix-based solvers of that time, kept verbatim apart from
// returning their explored-node counts, as the oracle FuzzSolverTrees holds
// the index-keyed solvers to: same value, same witness, same search tree.
type reference struct {
	edges     []HyperEdge
	vertices  []graph.VertexID // sorted
	incidence map[graph.VertexID][]EdgeID
	adj       [][]bool // simple-overlap matrix
}

func newReference(h *Hypergraph) *reference {
	r := &reference{edges: h.Edges(), incidence: make(map[graph.VertexID][]EdgeID)}
	for id, e := range r.edges {
		for _, v := range e.Vertices {
			if r.incidence[v] == nil {
				r.vertices = append(r.vertices, v)
			}
			r.incidence[v] = append(r.incidence[v], EdgeID(id))
		}
	}
	slices.Sort(r.vertices)
	r.adj = make([][]bool, len(r.edges))
	for i := range r.adj {
		r.adj[i] = make([]bool, len(r.edges))
	}
	for _, ids := range r.incidence {
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				r.adj[ids[x]][ids[y]] = true
				r.adj[ids[y]][ids[x]] = true
			}
		}
	}
	return r
}

func (r *reference) minimumVertexCover(maxNodes int) (CoverResult, int) {
	if len(r.edges) == 0 {
		return CoverResult{Cover: nil, Size: 0, Exact: true}, 0
	}

	best := r.greedyVertexCover()
	bestSet := make(map[graph.VertexID]bool, len(best.Cover))
	for _, v := range best.Cover {
		bestSet[v] = true
	}
	bestSize := best.Size

	chosen := make(map[graph.VertexID]bool)
	explored := 0
	truncated := false

	// firstUncovered returns an edge not intersected by chosen, or -1.
	firstUncovered := func() int {
		for i, e := range r.edges {
			covered := false
			for _, v := range e.Vertices {
				if chosen[v] {
					covered = true
					break
				}
			}
			if !covered {
				return i
			}
		}
		return -1
	}

	// matchingLowerBound greedily packs pairwise-disjoint uncovered edges;
	// any vertex cover needs at least one (distinct) vertex per packed edge,
	// so the packing size is a valid lower bound on the remaining work.
	matchingLowerBound := func() int {
		used := make(map[graph.VertexID]bool)
		count := 0
		for _, e := range r.edges {
			covered := false
			for _, v := range e.Vertices {
				if chosen[v] {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			disjoint := true
			for _, v := range e.Vertices {
				if used[v] {
					disjoint = false
					break
				}
			}
			if !disjoint {
				continue
			}
			for _, v := range e.Vertices {
				used[v] = true
			}
			count++
		}
		return count
	}

	var search func()
	search = func() {
		if truncated {
			return
		}
		explored++
		if maxNodes > 0 && explored > maxNodes {
			truncated = true
			return
		}
		if len(chosen) >= bestSize {
			return // cannot improve
		}
		idx := firstUncovered()
		if idx < 0 {
			// All edges covered with a strictly smaller cover.
			bestSize = len(chosen)
			bestSet = make(map[graph.VertexID]bool, len(chosen))
			for v := range chosen {
				bestSet[v] = true
			}
			return
		}
		if len(chosen)+matchingLowerBound() >= bestSize {
			return // even a perfect finish cannot beat the incumbent
		}
		// Branch on every vertex of the uncovered edge, trying high-degree
		// vertices first.
		edge := r.edges[idx]
		cands := make([]graph.VertexID, len(edge.Vertices))
		copy(cands, edge.Vertices)
		sort.Slice(cands, func(i, j int) bool {
			di, dj := len(r.incidence[cands[i]]), len(r.incidence[cands[j]])
			if di != dj {
				return di > dj
			}
			return cands[i] < cands[j]
		})
		for _, v := range cands {
			chosen[v] = true
			search()
			delete(chosen, v)
			if truncated {
				return
			}
		}
	}
	search()

	cover := make([]graph.VertexID, 0, len(bestSet))
	for v := range bestSet {
		cover = append(cover, v)
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return CoverResult{Cover: cover, Size: len(cover), Exact: !truncated}, explored
}

func (r *reference) greedyVertexCover() CoverResult {
	if len(r.edges) == 0 {
		return CoverResult{Exact: true}
	}
	covered := make([]bool, len(r.edges))
	remaining := len(r.edges)
	chosen := make(map[graph.VertexID]bool)

	for remaining > 0 {
		var best graph.VertexID
		bestGain := -1
		for _, v := range r.vertices {
			if chosen[v] {
				continue
			}
			gain := 0
			for _, id := range r.incidence[v] {
				if !covered[id] {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && v < best) {
				best, bestGain = v, gain
			}
		}
		if bestGain <= 0 {
			break
		}
		chosen[best] = true
		for _, id := range r.incidence[best] {
			if !covered[id] {
				covered[id] = true
				remaining--
			}
		}
	}
	cover := make([]graph.VertexID, 0, len(chosen))
	for v := range chosen {
		cover = append(cover, v)
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return CoverResult{Cover: cover, Size: len(cover), Exact: false}
}

func (r *reference) greedyIndependentEdgeSet() MatchingResult {
	m := len(r.edges)
	if m == 0 {
		return MatchingResult{Exact: true}
	}
	overlapSets := make([]map[int]bool, m)
	for i := range overlapSets {
		overlapSets[i] = make(map[int]bool)
	}
	for _, ids := range r.incidence {
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				a, b := int(ids[x]), int(ids[y])
				overlapSets[a][b] = true
				overlapSets[b][a] = true
			}
		}
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if len(overlapSets[order[a]]) != len(overlapSets[order[b]]) {
			return len(overlapSets[order[a]]) < len(overlapSets[order[b]])
		}
		return order[a] < order[b]
	})

	used := make(map[int]bool) // vertices already consumed, keyed by int(VertexID)
	var selected []EdgeID
	for _, idx := range order {
		e := r.edges[idx]
		free := true
		for _, v := range e.Vertices {
			if used[int(v)] {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for _, v := range e.Vertices {
			used[int(v)] = true
		}
		selected = append(selected, EdgeID(idx))
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i] < selected[j] })
	return MatchingResult{Edges: selected, Size: len(selected), Exact: false}
}

// maximumIndependentSet is the matrix-walking search on the simple-overlap
// graph of the hypergraph, packing seed and capacity bound included.
func (r *reference) maximumIndependentSet(maxNodes int) (IndependentSetResult, int) {
	n, adj := len(r.edges), r.adj
	if n == 0 {
		return IndependentSetResult{Exact: true}, 0
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	degree := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if adj[i][j] {
				degree[i]++
			}
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if degree[order[a]] != degree[order[b]] {
			return degree[order[a]] < degree[order[b]]
		}
		return order[a] < order[b]
	})

	best := r.greedyIndependentSet().Members

	weight := make([]int, n)
	var packing []int
	for _, i := range order {
		if !slices.ContainsFunc(packing, func(j int) bool { return adj[i][j] }) {
			packing = append(packing, i)
		}
	}
	if len(packing) >= len(best) {
		best = packing
	}
	capacityTotal := len(r.vertices)
	minWeight := len(r.edges[0].Vertices)
	for i, e := range r.edges {
		weight[i] = len(e.Vertices)
		minWeight = min(minWeight, weight[i])
	}

	blocked := make([]int, n)
	var current []int
	usedWeight := 0
	explored := 0
	truncated := false

	var search func(pos int)
	search = func(pos int) {
		if truncated {
			return
		}
		explored++
		if maxNodes > 0 && explored > maxNodes {
			truncated = true
			return
		}
		if len(current) > len(best) {
			best = make([]int, len(current))
			copy(best, current)
		}
		// Bound 1: still-selectable vertices beyond pos.
		remaining := 0
		for p := pos; p < n; p++ {
			if blocked[order[p]] == 0 {
				remaining++
			}
		}
		// Bound 2: vertex capacity.
		remaining = min(remaining, (capacityTotal-usedWeight)/minWeight)
		if len(current)+remaining <= len(best) {
			return
		}
		for p := pos; p < n; p++ {
			i := order[p]
			if blocked[i] != 0 {
				continue
			}
			current = append(current, i)
			usedWeight += weight[i]
			for j := 0; j < n; j++ {
				if adj[i][j] {
					blocked[j]++
				}
			}
			search(p + 1)
			for j := 0; j < n; j++ {
				if adj[i][j] {
					blocked[j]--
				}
			}
			usedWeight -= weight[i]
			current = current[:len(current)-1]
			if truncated {
				return
			}
		}
	}
	search(0)

	sort.Ints(best)
	return IndependentSetResult{Members: best, Size: len(best), Exact: !truncated}, explored
}

func (r *reference) greedyIndependentSet() IndependentSetResult {
	n, adj := len(r.edges), r.adj
	if n == 0 {
		return IndependentSetResult{Exact: true}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := n
	var members []int
	for aliveCount > 0 {
		best := -1
		bestDeg := -1
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			deg := 0
			for j := 0; j < n; j++ {
				if alive[j] && adj[i][j] {
					deg++
				}
			}
			if best == -1 || deg < bestDeg {
				best, bestDeg = i, deg
			}
		}
		members = append(members, best)
		alive[best] = false
		aliveCount--
		for j := 0; j < n; j++ {
			if alive[j] && adj[best][j] {
				alive[j] = false
				aliveCount--
			}
		}
	}
	sort.Ints(members)
	return IndependentSetResult{Members: members, Size: len(members), Exact: false}
}

// decodeHypergraph grows a hypergraph of at most 24 vertices and 40 edges
// from fuzz input the way lp's FuzzRelaxationCertificate does: each edge is a
// size byte (1 to 4 mentions) followed by that many vertex bytes.
func decodeHypergraph(data []byte) *Hypergraph {
	h := New()
	for len(data) > 0 && h.NumEdges() < 40 {
		size := 1 + int(data[0])%4
		if len(data) < 1+size {
			break
		}
		vs := make([]graph.VertexID, size)
		for i := range vs {
			vs[i] = graph.VertexID(data[1+i] % 24)
		}
		h.MustAddEdge(vs)
		data = data[1+size:]
	}
	return h
}

// starBytes encodes the occurrence hypergraph of a 3-leaf star pattern around
// two hubs (five leaf triples in all), each triple once per automorphism of
// the pattern: 30 edges in 5 classes of 6.
func starBytes() []byte {
	var out []byte
	for _, star := range [][]byte{{0, 2, 3, 4}, {0, 2, 3, 5}, {0, 2, 4, 5}, {0, 3, 4, 5}, {1, 3, 4, 5}} {
		for rep := 0; rep < 6; rep++ {
			out = append(out, 3)
			out = append(out, star...)
		}
	}
	return out
}

// FuzzSolverTrees holds the index-keyed solvers to the map-based reference
// on a fuzz-decoded hypergraph, duplicate edges included, under budgets that
// truncate at the first node, early, late and never: sizes, Exact flags,
// covers, packings and explored-node counts must all agree, so a truncated
// search stops on the same node with the same incumbent. It also holds the
// kernel to the hypergraph: its unbudgeted minimum cover and maximum packing
// have the reference's sizes, its cover covers the hypergraph, and its
// packing, read through the origin EdgeIDs, is independent there; and the
// kernel's view, laid out straight from the reducer's live edges, to the one
// New and AddEdge build from the same edges (referenceKernel). A decoded
// hypergraph that is uniform is built a second time through NewUniform,
// from its ranks, and held to the same reference trees, its view and its
// kernel to the AddEdge-built hypergraph's.
func FuzzSolverTrees(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3})
	f.Add([]byte{1, 1, 5, 1, 1, 6, 1, 1, 7, 1, 1, 8, 1, 2, 8, 1, 3, 8, 1, 4, 8})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 0, 0, 9, 3, 5, 6, 7, 8, 2, 5, 5, 6})
	f.Add(starBytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		h := decodeHypergraph(data)
		want := referenceTrees(newReference(h))
		checkSolverTrees(t, h, want)
		k, origin := h.Kernel()
		wantK, wantOrigin := h.reduce().referenceKernel()
		requireSameView(t, k, wantK)
		if !slices.Equal(origin, wantOrigin) {
			t.Fatalf("%v: kernel origin %v, reference %v", h.Edges(), origin, wantOrigin)
		}

		u := uniformCopy(h)
		if u == nil {
			return
		}
		requireSameView(t, u, h)
		checkSolverTrees(t, u, want)
		uk, uOrigin := u.Kernel()
		requireSameView(t, uk, k)
		if !slices.Equal(uOrigin, origin) {
			t.Fatalf("%v: NewUniform's kernel origin %v, AddEdge's %v", h.Edges(), uOrigin, origin)
		}
	})
}

// fuzzBudgets are the node budgets FuzzSolverTrees runs the searches under;
// 0, the unbudgeted arm, comes first.
var fuzzBudgets = []int{0, 1, 7, 200}

// maxUnbudgetedEdges is the most edges a hypergraph may have for
// FuzzSolverTrees to run the unbudgeted searches on it: the reference's and
// the solver's (budget 0) and the kernel's. The packing searches branch over
// the overlap graph, whose vertices are the edges, and both sides explore
// the same tree, exponential in it: one decoded input of 40 edges cost each
// of them 327 180 nodes (≈ 45 ms the reference, ≈ 15 ms the solver, twice),
// ≈ 150 ms an exec, and the fuzzer spent its minimisation time on inputs
// like it at no execs a second. Larger inputs keep the budgeted arms.
const maxUnbudgetedEdges = 24

// budgetsFor returns the budgets FuzzSolverTrees runs on a hypergraph of
// the given number of edges: fuzzBudgets without the unbudgeted arm past
// maxUnbudgetedEdges.
func budgetsFor(edges int) []int {
	if edges > maxUnbudgetedEdges {
		return fuzzBudgets[1:]
	}
	return fuzzBudgets
}

// trees is what the reference finds on one hypergraph: the greedy answers,
// and the searches' answers and node counts under each of fuzzBudgets.
type trees struct {
	greedyCover   CoverResult
	greedyPacking MatchingResult
	greedySet     IndependentSetResult
	covers        []CoverResult
	coverNodes    []int
	sets          []IndependentSetResult
	setNodes      []int
	cover         CoverResult          // unbudgeted, up to maxUnbudgetedEdges
	set           IndependentSetResult // unbudgeted, up to maxUnbudgetedEdges
}

// referenceTrees runs the reference's solvers once, for every hypergraph
// FuzzSolverTrees holds to them.
func referenceTrees(ref *reference) trees {
	w := trees{greedyCover: ref.greedyVertexCover(), greedyPacking: ref.greedyIndependentEdgeSet(), greedySet: ref.greedyIndependentSet()}
	for _, budget := range budgetsFor(len(ref.edges)) {
		cover, coverNodes := ref.minimumVertexCover(budget)
		set, setNodes := ref.maximumIndependentSet(budget)
		w.covers, w.coverNodes = append(w.covers, cover), append(w.coverNodes, coverNodes)
		w.sets, w.setNodes = append(w.sets, set), append(w.setNodes, setNodes)
		if budget == 0 {
			w.cover, w.set = cover, set
		}
	}
	return w
}

// checkSolverTrees is FuzzSolverTrees' check of one hypergraph against what
// the reference found.
func checkSolverTrees(t *testing.T, h *Hypergraph, want trees) {
	t.Helper()
	if got := h.GreedyVertexCover(); !sameCover(got, want.greedyCover) {
		t.Fatalf("%v: greedy cover %+v, reference %+v", h.Edges(), got, want.greedyCover)
	}
	if got := h.GreedyIndependentEdgeSet(); !sameMatching(got, want.greedyPacking) {
		t.Fatalf("%v: greedy packing %+v, reference %+v", h.Edges(), got, want.greedyPacking)
	}
	og := NewOverlapGraph(h, nil)
	if got := og.GreedyIndependentSet(); !sameIndependentSet(got, want.greedySet) {
		t.Fatalf("%v: greedy independent set %+v, reference %+v", h.Edges(), got, want.greedySet)
	}
	for i, budget := range budgetsFor(h.NumEdges()) {
		cover, coverNodes := h.minimumVertexCover(budget, 0)
		if !sameCover(cover, want.covers[i]) || coverNodes != want.coverNodes[i] {
			t.Fatalf("%v budget %d: cover %+v in %d nodes, reference %+v in %d", h.Edges(), budget, cover, coverNodes, want.covers[i], want.coverNodes[i])
		}
		set, setNodes := og.maximumIndependentSet(budget, 0)
		if !sameIndependentSet(set, want.sets[i]) || setNodes != want.setNodes[i] {
			t.Fatalf("%v budget %d: independent set %+v in %d nodes, reference %+v in %d", h.Edges(), budget, set, setNodes, want.sets[i], want.setNodes[i])
		}
	}

	if h.NumEdges() > maxUnbudgetedEdges {
		return
	}
	// A bound the optimum meets ends the search early and changes
	// nothing else: the unbudgeted answers are the reference's.
	cover, set := want.cover, want.set
	if got, nodes := h.minimumVertexCover(0, cover.Size); !sameCover(got, cover) {
		t.Fatalf("%v: cover under its own bound %+v in %d nodes, reference %+v", h.Edges(), got, nodes, cover)
	}
	if got, nodes := og.maximumIndependentSet(0, set.Size); !sameIndependentSet(got, set) {
		t.Fatalf("%v: independent set under its own bound %+v in %d nodes, reference %+v", h.Edges(), got, nodes, set)
	}

	k, origin := h.Kernel()
	kCover := k.MinimumVertexCover(0)
	if kCover.Size != cover.Size || !kCover.Exact || h.ValidateCover(kCover.Cover) != nil {
		t.Fatalf("%v: kernel %v gives cover %+v, reference %+v", h.Edges(), k.Edges(), kCover, cover)
	}
	kPacking := k.MaximumIndependentEdgeSet(0)
	edges := make([]EdgeID, kPacking.Size)
	for i, e := range kPacking.Edges {
		edges[i] = origin[e]
	}
	if kPacking.Size != set.Size || !kPacking.Exact || !h.IsIndependentEdgeSet(edges) {
		t.Fatalf("%v: kernel %v gives packing %+v (%v in h), reference %+v", h.Edges(), k.Edges(), kPacking, edges, set)
	}
}

// referenceKernel is the kernel as Kernel built it before it wrote its view
// straight from the live edges: every live edge's VertexIDs, in EdgeID
// order, added to a New hypergraph, whose view newDense lays out.
func (r *reducer) referenceKernel() (*Hypergraph, []EdgeID) {
	k := New()
	var origin []EdgeID
	for e, size := range r.size {
		if size == 0 {
			continue
		}
		vs := make([]graph.VertexID, 0, size)
		for _, u := range r.live(int32(e)) {
			vs = append(vs, r.d.vertices[u])
		}
		k.MustAddEdge(vs)
		origin = append(origin, EdgeID(e))
	}
	return k, origin
}

// uniformCopy returns h built through NewUniform — its ranks in Vertices()
// order, each edge's handed over reversed so that NewUniform sorts them —
// or nil when h is not uniform.
func uniformCopy(h *Hypergraph) *Hypergraph {
	k, uniform := h.IsUniform()
	if !uniform {
		return nil
	}
	vertices := h.Vertices()
	ranks := make([]int32, 0, k*h.NumEdges())
	for _, e := range h.Edges() {
		for i := len(e.Vertices) - 1; i >= 0; i-- {
			r, _ := slices.BinarySearch(vertices, e.Vertices[i])
			ranks = append(ranks, int32(r))
		}
	}
	return NewUniform(vertices, max(k, 1), ranks)
}

// requireSameView fails unless got and want have one dense view: vertices,
// edges, incidence lists and every edge's branch order.
func requireSameView(t *testing.T, got, want *Hypergraph) {
	t.Helper()
	g, w := got.view(), want.view()
	if !slices.Equal(g.vertices, w.vertices) || !slices.Equal(g.edgeOff, w.edgeOff) || !slices.Equal(g.edgeVtx, w.edgeVtx) ||
		!slices.Equal(g.incOff, w.incOff) || !slices.Equal(g.incEdge, w.incEdge) {
		t.Fatalf("view %v, want %v", got.Edges(), want.Edges())
	}
	for e := int32(0); e < int32(w.numEdges()); e++ {
		if !slices.Equal(g.branchOrder(e), w.branchOrder(e)) {
			t.Fatalf("%v: edge %d branches on %v, want %v", want.Edges(), e, g.branchOrder(e), w.branchOrder(e))
		}
	}
}

func sameCover(a, b CoverResult) bool {
	return a.Size == b.Size && a.Exact == b.Exact && slices.Equal(a.Cover, b.Cover)
}

func sameMatching(a, b MatchingResult) bool {
	return a.Size == b.Size && a.Exact == b.Exact && slices.Equal(a.Edges, b.Edges)
}

func sameIndependentSet(a, b IndependentSetResult) bool {
	return a.Size == b.Size && a.Exact == b.Exact && slices.Equal(a.Members, b.Members)
}

// TestBoundedSearchStopsAtTheBound runs both searches on random 3-uniform
// hypergraphs with and without the optimum as their bound. The answer is the
// same; the bounded search never explores more nodes, and where it explores
// fewer, its node count is a budget that proves the optimum with the bound
// and cannot without it.
func TestBoundedSearchStopsAtTheBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coverSaved, packingSaved := 0, 0
	for trial := 0; trial < 40; trial++ {
		h := New()
		for e := 0; e < 30; e++ {
			p := rng.Perm(16)
			h.MustAddEdge([]graph.VertexID{graph.VertexID(p[0]), graph.VertexID(p[1]), graph.VertexID(p[2])})
		}
		free, freeNodes := h.minimumVertexCover(0, 0)
		bounded, boundedNodes := h.minimumVertexCover(0, free.Size)
		if !free.Exact || !sameCover(free, bounded) || boundedNodes > freeNodes {
			t.Fatalf("trial %d: cover %+v in %d nodes, under its bound %+v in %d", trial, free, freeNodes, bounded, boundedNodes)
		}
		if 0 < boundedNodes && boundedNodes < freeNodes {
			coverSaved++
			if cut, _ := h.minimumVertexCover(boundedNodes, 0); cut.Exact {
				t.Errorf("trial %d: %d nodes proved the cover without the bound", trial, boundedNodes)
			}
			if cut, _ := h.minimumVertexCover(boundedNodes, free.Size); !cut.Exact || !sameCover(cut, free) {
				t.Errorf("trial %d: %d nodes and the bound gave %+v, want %+v", trial, boundedNodes, cut, free)
			}
		}

		og := NewOverlapGraph(h, nil)
		freeSet, freeSetNodes := og.maximumIndependentSet(0, 0)
		boundedSet, boundedSetNodes := og.maximumIndependentSet(0, freeSet.Size)
		if !freeSet.Exact || !sameIndependentSet(freeSet, boundedSet) || boundedSetNodes > freeSetNodes {
			t.Fatalf("trial %d: packing %+v in %d nodes, under its bound %+v in %d", trial, freeSet, freeSetNodes, boundedSet, boundedSetNodes)
		}
		if 0 < boundedSetNodes && boundedSetNodes < freeSetNodes {
			packingSaved++
			if cut, _ := og.maximumIndependentSet(boundedSetNodes, 0); cut.Exact {
				t.Errorf("trial %d: %d nodes proved the packing without the bound", trial, boundedSetNodes)
			}
			if cut, _ := og.maximumIndependentSet(boundedSetNodes, freeSet.Size); !cut.Exact || !sameIndependentSet(cut, freeSet) {
				t.Errorf("trial %d: %d nodes and the bound gave %+v, want %+v", trial, boundedSetNodes, cut, freeSet)
			}
		}
	}
	if coverSaved == 0 || packingSaved == 0 {
		t.Errorf("the bound cut %d cover and %d packing searches short; the test needs at least one of each", coverSaved, packingSaved)
	}
}

// TestConcurrentSolvers solves one shared hypergraph from 8 goroutines at
// once (run under -race): the dense view is built once behind its lock and
// every solver's scratch state is its own.
func TestConcurrentSolvers(t *testing.T) {
	h := decodeHypergraph(starBytes())
	ref := newReference(h)
	wantCover, wantCoverNodes := ref.minimumVertexCover(200)
	wantSet, wantSetNodes := ref.maximumIndependentSet(200)
	wantGreedy := ref.greedyIndependentEdgeSet()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, nodes := h.minimumVertexCover(200, 0); !sameCover(got, wantCover) || nodes != wantCoverNodes {
				t.Errorf("cover %+v in %d nodes, want %+v in %d", got, nodes, wantCover, wantCoverNodes)
			}
			if got, nodes := NewOverlapGraph(h, nil).maximumIndependentSet(200, 0); !sameIndependentSet(got, wantSet) || nodes != wantSetNodes {
				t.Errorf("independent set %+v in %d nodes, want %+v in %d", got, nodes, wantSet, wantSetNodes)
			}
			if got := h.GreedyIndependentEdgeSet(); !sameMatching(got, wantGreedy) {
				t.Errorf("greedy packing %+v, want %+v", got, wantGreedy)
			}
			if !h.IsVertexCover(h.MatchingVertexCover().Cover) {
				t.Error("matching cover is not a cover")
			}
		}()
	}
	wg.Wait()
}
