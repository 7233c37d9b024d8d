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
// packing, read through the origin EdgeIDs, is independent there.
func FuzzSolverTrees(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3})
	f.Add([]byte{1, 1, 5, 1, 1, 6, 1, 1, 7, 1, 1, 8, 1, 2, 8, 1, 3, 8, 1, 4, 8})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 0, 0, 9, 3, 5, 6, 7, 8, 2, 5, 5, 6})
	f.Add(starBytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		h := decodeHypergraph(data)
		ref := newReference(h)

		if got, want := h.GreedyVertexCover(), ref.greedyVertexCover(); !sameCover(got, want) {
			t.Fatalf("%v: greedy cover %+v, reference %+v", h.Edges(), got, want)
		}
		if got, want := h.GreedyIndependentEdgeSet(), ref.greedyIndependentEdgeSet(); !sameMatching(got, want) {
			t.Fatalf("%v: greedy packing %+v, reference %+v", h.Edges(), got, want)
		}
		og := NewOverlapGraph(h, nil)
		if got, want := og.GreedyIndependentSet(), ref.greedyIndependentSet(); !sameIndependentSet(got, want) {
			t.Fatalf("%v: greedy independent set %+v, reference %+v", h.Edges(), got, want)
		}
		for _, budget := range []int{0, 1, 7, 200} {
			cover, coverNodes := h.minimumVertexCover(budget, 0)
			wantCover, wantCoverNodes := ref.minimumVertexCover(budget)
			if !sameCover(cover, wantCover) || coverNodes != wantCoverNodes {
				t.Fatalf("%v budget %d: cover %+v in %d nodes, reference %+v in %d", h.Edges(), budget, cover, coverNodes, wantCover, wantCoverNodes)
			}
			set, setNodes := og.maximumIndependentSet(budget, 0)
			wantSet, wantSetNodes := ref.maximumIndependentSet(budget)
			if !sameIndependentSet(set, wantSet) || setNodes != wantSetNodes {
				t.Fatalf("%v budget %d: independent set %+v in %d nodes, reference %+v in %d", h.Edges(), budget, set, setNodes, wantSet, wantSetNodes)
			}
		}

		// A bound the optimum meets ends the search early and changes
		// nothing else: the unbudgeted answers are the reference's.
		cover, _ := ref.minimumVertexCover(0)
		if got, nodes := h.minimumVertexCover(0, cover.Size); !sameCover(got, cover) {
			t.Fatalf("%v: cover under its own bound %+v in %d nodes, reference %+v", h.Edges(), got, nodes, cover)
		}
		set, _ := ref.maximumIndependentSet(0)
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
	})
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
