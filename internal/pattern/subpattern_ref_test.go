package pattern

import "slices"

// SubPatterns is the reference the miner's grow-step witnesses replaced: it
// takes a pattern apart again, one edge at a time. It lives in test code only,
// where TestSubPatternsMatchBruteForce holds it to a brute force.

// SubPattern is one connected sub-pattern of a pattern with one edge fewer,
// named by its canonical code and placed inside the pattern it came from.
type SubPattern struct {
	// Code is the sub-pattern's canonical code.
	Code string
	// Places maps the sub-pattern into the pattern: Places[a] is the position,
	// in the pattern's Nodes(), of the node at canonical place a of the
	// sub-pattern (see CanonicalOrder). A dropped leaf has no place.
	Places []int
}

// SubPatterns lists the connected sub-patterns of p with one edge fewer, one
// per edge and dropped leaf. Without an edge on a cycle p keeps every node.
// Without an edge to a leaf it is connected once the leaf goes too; a
// one-edge pattern has two leaves and lists each single node. Without any
// other bridge p falls apart and lists nothing for that edge. Isomorphic
// sub-patterns reached through different edges are listed once per edge,
// because each sits in p differently.
//
// Every occurrence f of p restricts along Places to an occurrence of every
// listed sub-pattern S: the node at place a of S is mapped to f(Places[a]).
// So the images of p's node at Places[a], over all occurrences of p, lie in
// the images of the node at place a of any pattern whose code is S.Code.
// This is what the miner confines a candidate's search with.
func (p *Pattern) SubPatterns() []SubPattern {
	k := len(p.nodes)
	var out []SubPattern
	add := func(s shape, kept []int) {
		f := s.canonicalForm(nil)
		code, order := f.code, slices.Clone(f.order)
		for a, n := range order {
			order[a] = kept[n]
		}
		out = append(out, SubPattern{Code: code, Places: order})
	}
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if !p.has(i, j) {
				continue
			}
			s := p.withoutEdge(i, j)
			if s.connected() {
				add(s, all)
				continue
			}
			for _, leaf := range [2]int{i, j} {
				if p.degree(leaf) == 1 {
					add(s.withoutNode(leaf))
				}
			}
		}
	}
	return out
}

// withoutNode returns s without node drop, and the node of s every node of
// the result was: kept[n] is the node now at n. The others keep their order.
func (s shape) withoutNode(drop int) (shape, []int) {
	k := len(s.labels)
	kept := make([]int, 0, k-1)
	for n := 0; n < k; n++ {
		if n != drop {
			kept = append(kept, n)
		}
	}
	out := newShape(k - 1)
	for a, n := range kept {
		out.labels[a] = s.labels[n]
		for b := a + 1; b < len(kept); b++ {
			if s.has(n, kept[b]) {
				out.setEdge(a, b)
			}
		}
	}
	return out, kept
}
