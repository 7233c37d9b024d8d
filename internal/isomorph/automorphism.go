package isomorph

import (
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Automorphism is an isomorphism of a labeled graph onto itself
// (Definition 2.1.6), represented as a vertex permutation.
type Automorphism map[graph.VertexID]graph.VertexID

// Automorphisms returns all automorphisms of the labeled graph g, including
// the identity. It is the position search of the graph's model
// (patternModel.automorphisms) with each permutation mapped back to vertices.
func Automorphisms(g *graph.Graph) []Automorphism {
	m := newModel(g.SortedVertices(), g.MustLabelOf, g.Neighbors)
	perms := m.automorphisms()
	out := make([]Automorphism, len(perms))
	for a, perm := range perms {
		auto := make(Automorphism, len(perm))
		for i, j := range perm {
			auto[m.nodes[i]] = m.nodes[j]
		}
		out[a] = auto
	}
	return out
}

// automorphisms returns Aut of the labeled graph m models, each automorphism
// as the permutation of node positions it is (perm[i] is where position i
// goes), found by label- and degree-pruned backtracking over
// positions against an adjacency matrix — for the small graphs the library
// works with, a few array reads per candidate. The permutations come in
// lexicographic order; nothing built from them (Symmetry's below, stabiliser
// and orbitOf, Orbits' union-find) depends on that order.
func (m *patternModel) automorphisms() [][]int {
	k := len(m.nodes)
	edge := make([]bool, k*k)
	for i, nbs := range m.adj {
		for _, j := range nbs {
			edge[i*k+j] = true
		}
	}
	perm, used := make([]int, k), make([]bool, k)
	var perms [][]int
	var extend func(d int)
	extend = func(d int) {
		if d == k {
			// An injective, label-preserving map that keeps every edge and
			// non-edge among the mapped positions is an automorphism once
			// every position is mapped.
			perms = append(perms, slices.Clone(perm))
			return
		}
	candidates:
		for c := 0; c < k; c++ {
			if used[c] || m.labels[c] != m.labels[d] || m.deg[c] != m.deg[d] {
				continue
			}
			for w := 0; w < d; w++ {
				if edge[d*k+w] != edge[c*k+perm[w]] {
					continue candidates
				}
			}
			perm[d], used[c] = c, true
			extend(d + 1)
			used[c] = false
		}
	}
	extend(0)
	return perms
}

// Orbits partitions the vertices of g into equivalence classes under its
// automorphism group: u and v are in the same orbit iff some automorphism
// maps u to v. By Theorem 3.1 transitivity (being in a common orbit) is an
// equivalence relation, so orbits are well defined. Each orbit is sorted and
// orbits are returned ordered by their smallest vertex.
func Orbits(g *graph.Graph) [][]graph.VertexID {
	autos := Automorphisms(g)
	parent := make(map[graph.VertexID]graph.VertexID)
	var find func(v graph.VertexID) graph.VertexID
	find = func(v graph.VertexID) graph.VertexID {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	union := func(a, b graph.VertexID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, v := range g.SortedVertices() {
		parent[v] = v
	}
	for _, a := range autos {
		for u, v := range a {
			union(u, v)
		}
	}
	groups := make(map[graph.VertexID][]graph.VertexID)
	for _, v := range g.SortedVertices() {
		r := find(v)
		groups[r] = append(groups[r], v)
	}
	var out [][]graph.VertexID
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// AreTransitive reports whether u and v are transitive in g
// (Definition 3.2.2): some automorphism of g maps u to v. Every vertex is
// transitive with itself via the identity automorphism.
func AreTransitive(g *graph.Graph, u, v graph.VertexID) bool {
	if u == v {
		return g.HasVertex(u)
	}
	for _, orbit := range Orbits(g) {
		hasU, hasV := false, false
		for _, w := range orbit {
			if w == u {
				hasU = true
			}
			if w == v {
				hasV = true
			}
		}
		if hasU && hasV {
			return true
		}
		if hasU || hasV {
			return false
		}
	}
	return false
}

// SubgraphPolicy selects which subgraphs of the pattern are examined when
// enumerating transitive node subsets for the MI measure (Definition 3.2.4
// takes "a subgraph of pattern P"; the policy trades exhaustiveness for
// speed).
type SubgraphPolicy int

const (
	// PatternOnly considers only the pattern itself: transitive node subsets
	// are subsets of orbits of P. Fastest, weakest (largest) MI value.
	PatternOnly SubgraphPolicy = iota
	// InducedSubpatterns (the default) considers every connected induced
	// subpattern P[S]: for each connected node subset S the orbits of the
	// induced subgraph contribute transitive node subsets. This captures the
	// paper's motivating example (Figure 4) where two nodes are symmetric in
	// a proper subpattern but not in P itself.
	InducedSubpatterns
	// AllSubgraphs additionally drops every subset of edges from each induced
	// subpattern, keeping only the connected partial subgraphs. This is the
	// faithful reading of Definition 3.2.4 (restricted to connected
	// subgraphs so that the notion stays non-degenerate: with edgeless
	// subgraphs any two same-labeled nodes would be "transitive" and
	// structural overlap would collapse into simple overlap, contradicting
	// Figure 10). It is the only policy that is anti-monotonic under
	// arbitrary pattern extensions, including adding an edge between two
	// existing pattern nodes, and is therefore the default for the MI
	// measure. Exponential in the number of pattern edges, which is fine for
	// the small patterns mining produces.
	AllSubgraphs
)

// TransitiveNodeSubsets enumerates the candidate transitive node subsets T of
// pattern P under the given policy: every returned subset has at least one
// element, all of its vertex pairs are transitive in some subgraph of P
// selected by the policy, and the collection always includes all singletons
// (which is why sigma_MI <= sigma_MNI, Theorem 3.4). Subsets are returned in
// deterministic order and without duplicates.
func TransitiveNodeSubsets(p *pattern.Pattern, policy SubgraphPolicy) [][]pattern.NodeID {
	seen := make(map[string]bool)
	var out [][]pattern.NodeID

	add := func(subset []pattern.NodeID) {
		if len(subset) == 0 {
			return
		}
		cp := make([]pattern.NodeID, len(subset))
		copy(cp, subset)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		key := ""
		for _, v := range cp {
			key += string(rune('A'+int(v)%26)) + itoa(int(v)) + ","
		}
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, cp)
	}

	// Singletons are always transitive via the identity automorphism.
	for _, v := range p.Nodes() {
		add([]pattern.NodeID{v})
	}

	// addOrbitSubsets adds every subset (size >= 2) of each orbit of g.
	addOrbitSubsets := func(g *graph.Graph) {
		for _, orbit := range Orbits(g) {
			if len(orbit) < 2 {
				continue
			}
			// Enumerate all non-empty subsets of the orbit of size >= 2.
			n := len(orbit)
			for mask := 1; mask < (1 << n); mask++ {
				if popcount(mask) < 2 {
					continue
				}
				var subset []pattern.NodeID
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						subset = append(subset, orbit[i])
					}
				}
				add(subset)
			}
		}
	}

	switch policy {
	case PatternOnly:
		addOrbitSubsets(p.Graph())
	case InducedSubpatterns:
		for _, nodes := range p.AllConnectedSubsets() {
			sub, err := p.Subpattern(nodes)
			if err != nil {
				continue
			}
			addOrbitSubsets(sub)
		}
	case AllSubgraphs:
		for _, nodes := range p.AllConnectedSubsets() {
			sub, err := p.Subpattern(nodes)
			if err != nil {
				continue
			}
			edges := sub.Edges()
			m := len(edges)
			for mask := 0; mask < (1 << m); mask++ {
				var keep []graph.Edge
				for i := 0; i < m; i++ {
					if mask&(1<<i) != 0 {
						keep = append(keep, edges[i])
					}
				}
				partial := graph.New(sub.Name() + "/partial")
				for _, v := range sub.SortedVertices() {
					partial.MustAddVertex(v, sub.MustLabelOf(v))
				}
				for _, e := range keep {
					partial.MustAddEdge(e.U, e.V)
				}
				// Only connected partial subgraphs contribute: see the
				// AllSubgraphs documentation above.
				if partial.NumVertices() > 1 && !partial.IsConnected() {
					continue
				}
				addOrbitSubsets(partial)
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		for x := range out[i] {
			if out[i][x] != out[j][x] {
				return out[i][x] < out[j][x]
			}
		}
		return false
	})
	return out
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
