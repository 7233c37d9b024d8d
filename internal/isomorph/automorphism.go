package isomorph

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// automorphisms returns Aut of the labeled graph m models, each automorphism
// as the permutation of node positions it is (perm[i] is where position i
// goes), found by label- and degree-pruned backtracking over
// positions against an adjacency matrix — for the small graphs the library
// works with, a few array reads per candidate. The permutations come in
// lexicographic order; nothing built from them (Symmetry's below, stabiliser
// and orbitOf, the orbits of TransitiveNodeSubsets) depends on that order.
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

// TransitiveNodeSubsets enumerates the transitive node subsets of pattern P
// (Definition 3.2.3): every non-empty set of nodes that lie in one orbit of
// some connected subgraph of P (Definition 3.2.4). Subgraphs are restricted
// to connected ones so that the notion stays non-degenerate: with edgeless
// subgraphs any two same-labeled nodes would be transitive, and structural
// overlap would collapse into simple overlap, contradicting Figure 10. Taking
// every connected subgraph, not only P or its induced subpatterns, is what
// makes MI anti-monotonic under every extension, adding an edge between two
// existing nodes included; it also catches the two nodes of Figure 4, which
// are symmetric in a proper subpattern but not in P. The singletons, which
// the identity makes transitive, are always there (hence σ_MI ≤ σ_MNI,
// Theorem 3.4).
//
// Everything is computed on node positions: for every connected node set
// (Pattern.ConnectedSubsets) the connected spanning edge subsets are chosen
// edge by edge, the orbits of every such subgraph come from the one
// automorphism search (patternModel.automorphisms) run on its model, and the
// subsets are collected as position bitsets. They are returned sorted, by size
// and then by node IDs, without duplicates. A pattern of more than 64 nodes,
// whose node sets would not fit a bitset, is an error.
func TransitiveNodeSubsets(p *pattern.Pattern) ([][]pattern.NodeID, error) {
	k := p.Size()
	if k > 64 {
		return nil, fmt.Errorf("isomorph: transitive node subsets of a %d-node pattern: at most 64 nodes are supported", k)
	}
	m := newPatternModel(p)
	found := make([]uint64, k)
	for i := range found {
		found[i] = 1 << i // the singletons
	}
	for size := 2; size <= k; size++ {
		sets, _ := p.ConnectedSubsets(size) // k ≤ 64: no error
		for _, nodes := range sets {
			pos := make([]int, len(nodes))
			for a, v := range nodes {
				pos[a] = nodePos(m.nodes, v)
			}
			found = m.partialOrbitSubsets(pos, found)
		}
	}
	slices.SortFunc(found, func(a, b uint64) int {
		// Of two equally large sets the one holding the lowest position they
		// do not share has the smaller sorted node list: bit-reversed, the
		// larger number.
		return cmp.Or(bits.OnesCount64(a)-bits.OnesCount64(b), cmp.Compare(bits.Reverse64(b), bits.Reverse64(a)))
	})
	found = slices.Compact(found)
	out := make([][]pattern.NodeID, len(found))
	for a, set := range found {
		out[a] = make([]pattern.NodeID, 0, bits.OnesCount64(set))
		for s := set; s != 0; s &= s - 1 {
			out[a] = append(out[a], m.nodes[bits.TrailingZeros64(s)])
		}
	}
	return out, nil
}

// partialOrbitSubsets appends to found, as position bitsets, every subset of
// at least two nodes of an orbit of a connected subgraph of m spanning the
// connected node set at the ascending positions pos: the subgraph keeps some
// of m's edges among pos, enough to connect it, and its node a is m's
// position pos[a].
func (m *patternModel) partialOrbitSubsets(pos []int, found []uint64) []uint64 {
	var edges [][2]int // m's edges among pos, as indexes into pos
	for a, i := range pos {
		for _, j := range m.adj[i] {
			if b, ok := slices.BinarySearch(pos, j); ok && b > a {
				edges = append(edges, [2]int{a, b})
			}
		}
	}
	kept := make([]uint64, len(pos)) // kept[a]: a's neighbours in the subgraph
	var choose func(e int)
	choose = func(e int) {
		if e < len(edges) {
			choose(e + 1)
			a, b := edges[e][0], edges[e][1]
			kept[a], kept[b] = kept[a]|1<<b, kept[b]|1<<a
			choose(e + 1)
			kept[a], kept[b] = kept[a]&^(1<<b), kept[b]&^(1<<a)
			return
		}
		reached := uint64(1)
		for frontier := reached; frontier != 0; {
			var grown uint64
			for f := frontier; f != 0; f &= f - 1 {
				grown |= kept[bits.TrailingZeros64(f)]
			}
			frontier = grown &^ reached
			reached |= grown
		}
		if reached != 1<<len(pos)-1 {
			return
		}
		sub := &patternModel{nodes: make([]pattern.NodeID, len(pos)), labels: make([]graph.Label, len(pos)), deg: make([]int, len(pos)), adj: make([][]int, len(pos))}
		for a, i := range pos {
			sub.nodes[a], sub.labels[a], sub.deg[a] = m.nodes[i], m.labels[i], bits.OnesCount64(kept[a])
			for r := kept[a]; r != 0; r &= r - 1 {
				sub.adj[a] = append(sub.adj[a], bits.TrailingZeros64(r))
			}
		}
		perms := sub.automorphisms()
		for a := range pos {
			var orbit uint64
			first := true
			for _, perm := range perms {
				first = first && perm[a] >= a
				orbit |= 1 << pos[perm[a]]
			}
			// Each orbit is taken once, at its first node.
			if !first {
				continue
			}
			for s := orbit; s != 0; s = (s - 1) & orbit {
				if s&(s-1) != 0 {
					found = append(found, s)
				}
			}
		}
	}
	choose(0)
	return found
}
