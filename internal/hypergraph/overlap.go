package hypergraph

import "slices"

// OverlapGraph is the occurrence/instance overlap graph (Definition 2.2.5)
// projected from a hypergraph: one vertex per hypergraph edge, and an
// (undirected, simple) edge between two vertices whenever the corresponding
// hypergraph edges overlap under the chosen overlap predicate.
type OverlapGraph struct {
	n int
	// adjOff/adjList: the neighbors of vertex i are
	// adjList[adjOff[i]:adjOff[i+1]], ascending.
	adjOff  []int32
	adjList []int32
	// h is the projected hypergraph when the graph was built by plain vertex
	// overlap and nil under a predicate. Only then is an independent set a
	// set of pairwise disjoint hyperedges, which the vertex-capacity bound
	// and the packing seed of MaximumIndependentSet rely on.
	h *Hypergraph
}

// OverlapPredicate decides whether hypergraph edges a and b overlap. Simple
// vertex overlap needs none (NewOverlapGraph reads it off the hypergraph);
// the measures package supplies harmful-overlap and structural-overlap
// predicates that compare the underlying occurrences.
type OverlapPredicate func(a, b EdgeID) bool

// NewOverlapGraph builds the overlap graph of h under the given predicate.
// A nil predicate means simple vertex overlap, which is read off the
// incidence lists (work proportional to the number of overlapping pairs — it
// matters for occurrence hypergraphs with thousands of edges); a predicate
// is asked about every pair.
func NewOverlapGraph(h *Hypergraph, pred OverlapPredicate) *OverlapGraph {
	n := h.NumEdges()
	og := &OverlapGraph{n: n, adjOff: make([]int32, n+1)}
	if pred == nil {
		og.h = h
		d := h.view()
		mark := make([]int32, n)
		for e := 0; e < n; e++ {
			og.adjList = d.overlaps(int32(e), mark, og.adjList)
			slices.Sort(og.adjList[og.adjOff[e]:])
			og.adjOff[e+1] = int32(len(og.adjList))
		}
		return og
	}
	var pairs []int32
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pred(EdgeID(i), EdgeID(j)) {
				pairs = append(pairs, int32(i), int32(j))
				og.adjOff[i+1]++
				og.adjOff[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		og.adjOff[i+1] += og.adjOff[i]
	}
	// Pairs arrive sorted by (i, j), so a vertex receives its smaller
	// neighbors in order before its larger ones in order.
	og.adjList = make([]int32, len(pairs))
	next := slices.Clone(og.adjOff[:n])
	for k := 0; k < len(pairs); k += 2 {
		i, j := pairs[k], pairs[k+1]
		og.adjList[next[i]] = j
		next[i]++
		og.adjList[next[j]] = i
		next[j]++
	}
	return og
}

// NumVertices returns the number of overlap-graph vertices (= hypergraph
// edges = occurrences or instances of the pattern).
func (og *OverlapGraph) NumVertices() int { return og.n }

// neighbors returns the vertices adjacent to i, ascending.
func (og *OverlapGraph) neighbors(i int32) []int32 { return og.adjList[og.adjOff[i]:og.adjOff[i+1]] }

// HasEdge reports whether overlap-graph vertices i and j are adjacent.
func (og *OverlapGraph) HasEdge(i, j int) bool {
	if i < 0 || j < 0 || i >= og.n || j >= og.n {
		return false
	}
	_, ok := slices.BinarySearch(og.neighbors(int32(i)), int32(j))
	return ok
}

// NumEdges returns the number of overlap-graph edges.
func (og *OverlapGraph) NumEdges() int { return len(og.adjList) / 2 }

// IndependentSetResult is the outcome of a maximum independent set
// computation on an overlap graph.
type IndependentSetResult struct {
	// Members lists the selected overlap-graph vertices (hypergraph edge IDs).
	Members []int
	Size    int
	Exact   bool
}

// MaximumIndependentSet computes a maximum independent vertex set of the
// overlap graph (the MIS support, Definition 2.2.7) by branch and bound.
// maxNodes limits the explored search nodes; zero means unlimited. When the
// bound is hit the best set found so far is returned with Exact=false.
// Vertices are branched in order of increasing degree so that large
// independent sets are found early, and GreedyIndependentSet is the first
// incumbent.
//
// Under simple overlap this is also the search behind
// Hypergraph.MaximumIndependentEdgeSet (Theorem 4.1), and two things hold
// that a predicate graph does not offer. The greedy packing is a second seed
// (the larger of the two starts as the incumbent, the packing on a tie): it
// is the first-fit set in branch order, which the search's first descent
// finds anyway — unless the budget ends it first. And a vertex-capacity bound
// joins the count of still-selectable vertices: members are disjoint
// hyperedges, so every further one consumes at least min-edge-size unused
// hypergraph vertices.
func (og *OverlapGraph) MaximumIndependentSet(maxNodes int) IndependentSetResult {
	res, explored := og.maximumIndependentSet(maxNodes, 0)
	mPackingNodes.Add(uint64(explored))
	return res
}

// maximumIndependentSet is the search behind MaximumIndependentSet and
// Hypergraph.MaximumIndependentEdgeSetBounded, whose upperBound it takes
// (zero is no bound); it also returns the number of search nodes it explored.
func (og *OverlapGraph) maximumIndependentSet(maxNodes, upperBound int) (IndependentSetResult, int) {
	if og.n == 0 {
		return IndependentSetResult{Exact: true}, 0
	}
	s := independentSetSearch{
		og:       og,
		maxNodes: maxNodes,
		upper:    upperBound,
		order:    make([]int32, og.n),
		posOf:    make([]int32, og.n),
		blocked:  make([]int32, og.n),
		weight:   make([]int32, og.n),
		// Under a predicate members may share hypergraph vertices: weights
		// of zero against a capacity of n leave the capacity bound vacuous.
		capacity:  og.n,
		minWeight: 1,
	}
	for i := range s.order {
		s.order[i] = int32(i)
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		if da, db := len(og.neighbors(a)), len(og.neighbors(b)); da != db {
			return da - db
		}
		return int(a - b)
	})
	for p, i := range s.order {
		s.posOf[i] = int32(p)
	}

	s.best = og.greedyIndependentSet()
	if og.h != nil {
		taken := make([]bool, og.n)
		var packing []int32
		for _, i := range s.order {
			if !slices.ContainsFunc(og.neighbors(i), func(j int32) bool { return taken[j] }) {
				taken[i] = true
				packing = append(packing, i)
			}
		}
		if len(packing) >= len(s.best) {
			s.best = packing
		}
		d := og.h.view()
		s.capacity = len(d.vertices)
		s.minWeight = len(d.edge(0))
		for e := range s.weight {
			s.weight[e] = int32(len(d.edge(int32(e))))
			s.minWeight = min(s.minWeight, int(s.weight[e]))
		}
	}
	if upperBound == 0 || len(s.best) < upperBound {
		s.search(0, og.n)
	}

	members := make([]int, len(s.best))
	for i, m := range s.best {
		members[i] = int(m)
	}
	slices.Sort(members)
	return IndependentSetResult{Members: members, Size: len(members), Exact: !s.truncated}, s.explored
}

// independentSetSearch is the state of one branch-and-bound independent set
// search.
type independentSetSearch struct {
	og       *OverlapGraph
	maxNodes int
	upper    int

	// order is the branch order (degree ascending, index ascending) and
	// posOf its inverse.
	order, posOf []int32
	// blocked[j] counts the members of current adjacent to j.
	blocked []int32
	// weight, capacity and minWeight feed the vertex-capacity bound.
	weight              []int32
	capacity, minWeight int

	current    []int32
	usedWeight int
	best       []int32

	explored  int
	truncated bool // the node budget ran out
	stopped   bool // truncated, or the incumbent met the upper bound
}

// search explores the node whose independent set is current and whose
// candidates are the unblocked vertices at branch positions pos and later;
// remaining is their number.
func (s *independentSetSearch) search(pos, remaining int) {
	if s.stopped {
		return
	}
	s.explored++
	if s.maxNodes > 0 && s.explored > s.maxNodes {
		s.truncated, s.stopped = true, true
		return
	}
	if len(s.current) > len(s.best) {
		s.best = slices.Clone(s.current)
		if s.upper > 0 && len(s.best) >= s.upper {
			s.stopped = true
			return
		}
	}
	// Bound 1 is remaining, the still-selectable vertices; bound 2 the
	// vertex capacity.
	if len(s.current)+min(remaining, (s.capacity-s.usedWeight)/s.minWeight) <= len(s.best) {
		return
	}
	for p := pos; remaining > 0; p++ {
		i := s.order[p]
		if s.blocked[i] != 0 {
			continue
		}
		// Taking i leaves the candidates after p that it does not block.
		remaining--
		left := remaining
		for _, j := range s.og.neighbors(i) {
			if s.blocked[j] == 0 && s.posOf[j] > int32(p) {
				left--
			}
			s.blocked[j]++
		}
		s.current = append(s.current, i)
		s.usedWeight += int(s.weight[i])
		s.search(p+1, left)
		s.usedWeight -= int(s.weight[i])
		s.current = s.current[:len(s.current)-1]
		for _, j := range s.og.neighbors(i) {
			s.blocked[j]--
		}
		if s.stopped {
			return
		}
	}
}

// GreedyIndependentSet computes an inclusion-maximal independent set by
// repeatedly taking the minimum-degree vertex (the lowest index among equals)
// and discarding its neighbors.
func (og *OverlapGraph) GreedyIndependentSet() IndependentSetResult {
	if og.n == 0 {
		return IndependentSetResult{Exact: true}
	}
	picked := og.greedyIndependentSet()
	members := make([]int, len(picked))
	for i, m := range picked {
		members[i] = int(m)
	}
	slices.Sort(members)
	return IndependentSetResult{Members: members, Size: len(members), Exact: false}
}

// greedyIndependentSet returns the greedy set in pick order. live[i] is the
// number of alive neighbors of i, kept current as vertices die, so a pick is
// one scan of the vertices.
func (og *OverlapGraph) greedyIndependentSet() []int32 {
	alive := make([]bool, og.n)
	live := make([]int32, og.n)
	for i := range alive {
		alive[i] = true
		live[i] = int32(len(og.neighbors(int32(i))))
	}
	kill := func(x int32) {
		alive[x] = false
		for _, y := range og.neighbors(x) {
			live[y]--
		}
	}
	var members []int32
	for aliveCount := og.n; aliveCount > 0; {
		best := int32(-1)
		for i := int32(0); i < int32(og.n); i++ {
			if alive[i] && (best == -1 || live[i] < live[best]) {
				best = i
			}
		}
		members = append(members, best)
		kill(best)
		aliveCount--
		for _, j := range og.neighbors(best) {
			if alive[j] {
				kill(j)
				aliveCount--
			}
		}
	}
	return members
}

// IsIndependentSet reports whether the given overlap-graph vertices are
// pairwise non-adjacent.
func (og *OverlapGraph) IsIndependentSet(members []int) bool {
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if og.HasEdge(members[i], members[j]) {
				return false
			}
		}
	}
	return true
}

// CliquePartitionResult is the outcome of a minimum clique partition
// computation on an overlap graph.
type CliquePartitionResult struct {
	// Cliques lists the partition classes; every class is a clique of the
	// overlap graph and every vertex appears in exactly one class.
	Cliques [][]int
	Size    int
	Exact   bool
}

// GreedyCliquePartition computes a clique partition of the overlap graph by
// greedy clique growing; its size upper-bounds the MCP support measure of
// Calders et al. referenced in Chapter 5. Minimum clique partition is NP-hard,
// so only the greedy variant is provided; it still satisfies
// MIS <= |partition| because each clique contains at most one member of any
// independent set.
func (og *OverlapGraph) GreedyCliquePartition() CliquePartitionResult {
	assigned := make([]bool, og.n)
	var cliques [][]int
	for v := 0; v < og.n; v++ {
		if assigned[v] {
			continue
		}
		clique := []int{v}
		assigned[v] = true
		// A member is adjacent to v, so only v's later neighbors can join.
		for _, w := range og.neighbors(int32(v)) {
			if int(w) < v || assigned[w] {
				continue
			}
			if !slices.ContainsFunc(clique, func(c int) bool { return !og.HasEdge(c, int(w)) }) {
				clique = append(clique, int(w))
				assigned[w] = true
			}
		}
		cliques = append(cliques, clique)
	}
	return CliquePartitionResult{Cliques: cliques, Size: len(cliques), Exact: false}
}
