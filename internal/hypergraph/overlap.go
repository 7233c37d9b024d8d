package hypergraph

import (
	"slices"
	"sort"
)

// OverlapGraph is the occurrence/instance overlap graph (Definition 2.2.5)
// projected from a hypergraph: one vertex per hypergraph edge, and an
// (undirected, simple) edge between two vertices whenever the corresponding
// hypergraph edges overlap under the chosen overlap predicate.
type OverlapGraph struct {
	n   int
	adj [][]bool
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
	og := &OverlapGraph{n: n, adj: make([][]bool, n)}
	for i := range og.adj {
		og.adj[i] = make([]bool, n)
	}
	if pred == nil {
		og.h = h
		for _, ids := range h.incidence {
			for x := 0; x < len(ids); x++ {
				for y := x + 1; y < len(ids); y++ {
					a, b := ids[x], ids[y]
					og.adj[a][b] = true
					og.adj[b][a] = true
				}
			}
		}
		return og
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pred(EdgeID(i), EdgeID(j)) {
				og.adj[i][j] = true
				og.adj[j][i] = true
			}
		}
	}
	return og
}

// NumVertices returns the number of overlap-graph vertices (= hypergraph
// edges = occurrences or instances of the pattern).
func (og *OverlapGraph) NumVertices() int { return og.n }

// HasEdge reports whether overlap-graph vertices i and j are adjacent.
func (og *OverlapGraph) HasEdge(i, j int) bool {
	if i < 0 || j < 0 || i >= og.n || j >= og.n || i == j {
		return false
	}
	return og.adj[i][j]
}

// NumEdges returns the number of overlap-graph edges.
func (og *OverlapGraph) NumEdges() int {
	count := 0
	for i := 0; i < og.n; i++ {
		for j := i + 1; j < og.n; j++ {
			if og.adj[i][j] {
				count++
			}
		}
	}
	return count
}

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
	if og.n == 0 {
		return IndependentSetResult{Exact: true}
	}

	order := make([]int, og.n)
	for i := range order {
		order[i] = i
	}
	degree := make([]int, og.n)
	for i := 0; i < og.n; i++ {
		for j := 0; j < og.n; j++ {
			if og.adj[i][j] {
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

	best := og.GreedyIndependentSet().Members

	// Under a predicate members may share hypergraph vertices: weights of
	// zero against a capacity of n leave the capacity bound vacuous.
	weight := make([]int, og.n)
	capacityTotal, minWeight := og.n, 1
	if og.h != nil {
		var packing []int
		for _, i := range order {
			if !slices.ContainsFunc(packing, func(j int) bool { return og.adj[i][j] }) {
				packing = append(packing, i)
			}
		}
		if len(packing) >= len(best) {
			best = packing
		}
		capacityTotal = og.h.NumVertices()
		minWeight = len(og.h.edges[0].Vertices)
		for i, e := range og.h.edges {
			weight[i] = len(e.Vertices)
			minWeight = min(minWeight, weight[i])
		}
	}

	blocked := make([]int, og.n)
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
		for p := pos; p < og.n; p++ {
			if blocked[order[p]] == 0 {
				remaining++
			}
		}
		// Bound 2: vertex capacity.
		remaining = min(remaining, (capacityTotal-usedWeight)/minWeight)
		if len(current)+remaining <= len(best) {
			return
		}
		for p := pos; p < og.n; p++ {
			i := order[p]
			if blocked[i] != 0 {
				continue
			}
			current = append(current, i)
			usedWeight += weight[i]
			for j := 0; j < og.n; j++ {
				if og.adj[i][j] {
					blocked[j]++
				}
			}
			search(p + 1)
			for j := 0; j < og.n; j++ {
				if og.adj[i][j] {
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
	return IndependentSetResult{Members: best, Size: len(best), Exact: !truncated}
}

// GreedyIndependentSet computes an inclusion-maximal independent set by
// repeatedly taking the minimum-degree vertex and discarding its neighbors.
func (og *OverlapGraph) GreedyIndependentSet() IndependentSetResult {
	if og.n == 0 {
		return IndependentSetResult{Exact: true}
	}
	alive := make([]bool, og.n)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := og.n
	var members []int
	for aliveCount > 0 {
		best := -1
		bestDeg := -1
		for i := 0; i < og.n; i++ {
			if !alive[i] {
				continue
			}
			deg := 0
			for j := 0; j < og.n; j++ {
				if alive[j] && og.adj[i][j] {
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
		for j := 0; j < og.n; j++ {
			if alive[j] && og.adj[best][j] {
				alive[j] = false
				aliveCount--
			}
		}
	}
	sort.Ints(members)
	return IndependentSetResult{Members: members, Size: len(members), Exact: false}
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
		for w := v + 1; w < og.n; w++ {
			if assigned[w] {
				continue
			}
			ok := true
			for _, c := range clique {
				if !og.adj[c][w] {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, w)
				assigned[w] = true
			}
		}
		cliques = append(cliques, clique)
	}
	return CliquePartitionResult{Cliques: cliques, Size: len(cliques), Exact: false}
}
