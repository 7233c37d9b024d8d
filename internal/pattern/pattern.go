// Package pattern models query patterns (Definition 2.1.3): small connected
// labeled graphs searched for inside a large data graph. It provides
// canonical forms and automorphism orbits for duplicate elimination during
// mining, pattern extension operators (grow steps that say where the parent
// sits in the grown pattern, which is what a mined candidate is confined by),
// the connected node subsets the MNI(k) support measure minimises over, and
// the pattern's symmetry: the automorphism group instance counting rests on,
// and the transitive node subsets the MI measure minimises over.
package pattern

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// NodeID identifies a vertex of a pattern. By convention pattern nodes are
// dense indexes 0..k-1, but the type accepts arbitrary IDs to keep the
// paper's examples (v1, v2, ...) readable.
type NodeID = graph.VertexID

// Pattern is a query pattern: a connected labeled graph, held in a compact
// immutable form — sorted node IDs, one label per node and one adjacency
// bitset row per node. It is built once by New, SingleEdge or Extend and
// never changes afterwards, so patterns may be shared freely between
// goroutines. Every accessor answers from the compact form; Graph() is a
// derived view for callers that want a graph.Graph.
type Pattern struct {
	name  string
	nodes []NodeID // ascending
	shape          // labels and adjacency by position in nodes
	edges int

	// canonical caches the canonical form: CanonicalCode, CanonicalOrder,
	// PlaceOrbit and PairOrbit (see canon).
	canonical atomic.Pointer[form]

	graphOnce sync.Once
	g         *graph.Graph
}

// New builds the pattern of a labeled graph. The graph must be non-empty and
// connected: the paper (and all single-graph mining literature) only
// considers connected patterns. The pattern copies what it needs out of g;
// mutating g afterwards does not affect it.
func New(g *graph.Graph) (*Pattern, error) {
	nodes := g.SortedVertices()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("pattern: empty graph")
	}
	p := &Pattern{name: g.Name(), nodes: nodes, shape: newShape(len(nodes)), edges: g.NumEdges()}
	for i, v := range nodes {
		p.labels[i] = g.MustLabelOf(v)
		for _, w := range g.Neighbors(v) {
			p.setEdge(i, p.pos(w))
		}
	}
	if !p.connected() {
		return nil, fmt.Errorf("pattern %q: pattern graphs must be connected", p.name)
	}
	return p, nil
}

// MustNew is New but panics on error; intended for tests and fixtures.
func MustNew(g *graph.Graph) *Pattern {
	p, err := New(g)
	if err != nil {
		panic(err)
	}
	return p
}

// SingleEdge returns the one-edge pattern with the two given labels. This is
// the seed pattern shape used by the frequent-pattern miner.
func SingleEdge(a, b graph.Label) *Pattern {
	p := &Pattern{name: fmt.Sprintf("edge(%d,%d)", a, b), nodes: denseNodes(2), shape: newShape(2), edges: 1}
	p.labels[0], p.labels[1] = a, b
	p.setEdge(0, 1)
	return p
}

// denseNodes returns the node IDs 0..k-1.
func denseNodes(k int) []NodeID {
	nodes := make([]NodeID, k)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	return nodes
}

// pos returns the position of v in the sorted node list, or -1 when v is not
// a node of the pattern.
func (p *Pattern) pos(v NodeID) int {
	if i := int(v); i >= 0 && i < len(p.nodes) && p.nodes[i] == v {
		return i // dense IDs, the common case
	}
	i := sort.Search(len(p.nodes), func(i int) bool { return p.nodes[i] >= v })
	if i < len(p.nodes) && p.nodes[i] == v {
		return i
	}
	return -1
}

// Graph returns the pattern as a labeled graph carrying the pattern's name.
// The graph is a view derived from the pattern on first use and shared by
// all callers, who must not mutate it; doing so would not change the pattern.
func (p *Pattern) Graph() *graph.Graph {
	p.graphOnce.Do(func() {
		g := graph.New(p.name)
		for i, v := range p.nodes {
			g.MustAddVertex(v, p.labels[i])
		}
		for _, e := range p.Edges() {
			g.MustAddEdge(e.U, e.V)
		}
		p.g = g
	})
	return p.g
}

// Nodes returns the pattern node IDs in sorted order. The slice is a copy.
func (p *Pattern) Nodes() []NodeID { return append([]NodeID(nil), p.nodes...) }

// Edges returns the pattern edges in normalized sorted order.
func (p *Pattern) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, p.edges)
	for i := range p.nodes {
		for j := i + 1; j < len(p.nodes); j++ {
			if p.has(i, j) {
				out = append(out, graph.Edge{U: p.nodes[i], V: p.nodes[j]})
			}
		}
	}
	return out
}

// Size returns the number of nodes k of the pattern; occurrence hypergraphs
// built from the pattern are k-uniform.
func (p *Pattern) Size() int { return len(p.nodes) }

// NumEdges returns the number of edges of the pattern.
func (p *Pattern) NumEdges() int { return p.edges }

// LabelOf returns the label of a pattern node; it panics when v is not a
// node of the pattern.
func (p *Pattern) LabelOf(v NodeID) graph.Label {
	i := p.pos(v)
	if i < 0 {
		panic(fmt.Sprintf("pattern %q: unknown node %d", p.name, v))
	}
	return p.labels[i]
}

// Degree returns the number of neighbors of v, zero for an unknown node.
func (p *Pattern) Degree(v NodeID) int {
	i := p.pos(v)
	if i < 0 {
		return 0
	}
	return p.degree(i)
}

// HasEdge reports whether u and v are adjacent pattern nodes.
func (p *Pattern) HasEdge(u, v NodeID) bool {
	i, j := p.pos(u), p.pos(v)
	return i >= 0 && j >= 0 && p.has(i, j)
}

// Neighbors returns the neighbors of v in increasing order, nil for an
// unknown node.
func (p *Pattern) Neighbors(v NodeID) []NodeID {
	i := p.pos(v)
	if i < 0 {
		return nil
	}
	out := make([]NodeID, 0, p.degree(i))
	for j := range p.nodes {
		if p.has(i, j) {
			out = append(out, p.nodes[j])
		}
	}
	return out
}

// Adjacency returns the pattern's adjacency by node position: Adjacency()[i]
// lists the positions in Nodes() of the neighbours of the node at position
// i, ascending. It is read off the bitset rows, and the lists share one
// backing array.
func (p *Pattern) Adjacency() [][]int {
	adj := make([][]int, len(p.nodes))
	flat := make([]int, 0, 2*p.edges)
	for i := range adj {
		start := len(flat)
		for w, word := range p.row(i) {
			for ; word != 0; word &= word - 1 {
				flat = append(flat, w<<6|bits.TrailingZeros64(word))
			}
		}
		adj[i] = flat[start:len(flat):len(flat)]
	}
	return adj
}

// String returns a compact description including the canonical code, which
// makes log output stable across runs.
func (p *Pattern) String() string {
	return fmt.Sprintf("Pattern(k=%d, m=%d, code=%s)", p.Size(), p.NumEdges(), p.CanonicalCode())
}

// Automorphisms returns Aut(P), each automorphism as the permutation of node
// positions in Nodes() it is: perm[i] is the position it sends position i
// to. They come in lexicographic order, so the identity is first. The group
// is searched for on every call (shape.automorphisms), not cached: the
// canonical form keeps orbits only, since a one-label star's group is
// factorial, so a caller that needs the group keeps what this returns.
func (p *Pattern) Automorphisms() [][]int { return p.automorphisms() }

// ConnectedSubsets enumerates every connected subset of pattern nodes with
// exactly size elements, each sorted, for the parameterized MNI(k) measure
// (Definition 2.2.9); size 1 gives the singletons. The subsets are ordered as
// their keys "v1,v2,...," compare as strings, the order MNI(k)'s witness
// names the first minimising subset in. They are grown as position bitsets
// (growSets), so the work is that of the connected subsets up to size, never
// a scan of all 2^k node sets. A pattern of more than 64 nodes, whose node
// sets would not fit a bitset, is an error.
func (p *Pattern) ConnectedSubsets(size int) ([][]NodeID, error) {
	if size <= 0 || size > p.Size() {
		return nil, nil
	}
	if p.Size() > 64 {
		return nil, fmt.Errorf("pattern %q: connected subsets of a %d-node pattern: at most 64 nodes are supported", p.name, p.Size())
	}
	level := p.singletons()
	for n := 1; n < size; n++ {
		level = p.growSets(level)
	}
	out := p.nodeLists(level)
	slices.SortFunc(out, func(a, b []NodeID) int {
		// Equally long keys agree up to the first node that differs and from
		// there compare as its two decimals do: the comma ending the shorter
		// one sorts below every digit.
		for i := range a {
			if a[i] != b[i] {
				var x, y [20]byte
				return bytes.Compare(strconv.AppendInt(x[:0], int64(a[i]), 10), strconv.AppendInt(y[:0], int64(b[i]), 10))
			}
		}
		return 0
	})
	return out, nil
}

// singletons returns the one-node sets of a pattern of at most 64 nodes, as
// position bitsets.
func (p *Pattern) singletons() []uint64 {
	sets := make([]uint64, p.Size())
	for i := range sets {
		sets[i] = 1 << i
	}
	return sets
}

// growSets returns, sorted and without duplicates, the connected node sets
// one node larger than the given ones that contain one of them: each set
// grown by one neighbour, read off the adjacency rows. The sets are position
// bitsets of a pattern of at most 64 nodes.
func (p *Pattern) growSets(level []uint64) []uint64 {
	var next []uint64
	for _, set := range level {
		var reach uint64
		for s := set; s != 0; s &= s - 1 {
			reach |= p.row(bits.TrailingZeros64(s))[0]
		}
		for r := reach &^ set; r != 0; r &= r - 1 {
			next = append(next, set|r&-r)
		}
	}
	slices.Sort(next)
	return slices.Compact(next)
}

// nodeLists returns each position bitset as the sorted list of its node IDs.
func (p *Pattern) nodeLists(sets []uint64) [][]NodeID {
	out := make([][]NodeID, len(sets))
	for a, set := range sets {
		out[a] = make([]NodeID, 0, bits.OnesCount64(set))
		for s := set; s != 0; s &= s - 1 {
			out[a] = append(out[a], p.nodes[bits.TrailingZeros64(s)])
		}
	}
	return out
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
// Everything is computed on position bitsets: for every connected node set
// (growSets, as ConnectedSubsets grows them) the connected spanning edge
// subsets are chosen edge by edge, each is a shape whose orbits come from the
// one automorphism search (shape.automorphisms), and the subsets are
// collected as bitsets. They are returned sorted, by size and then by node
// IDs, without duplicates. A pattern of more than 64 nodes, whose node sets
// would not fit a bitset, is an error.
func (p *Pattern) TransitiveNodeSubsets() ([][]NodeID, error) {
	k := p.Size()
	if k > 64 {
		return nil, fmt.Errorf("pattern %q: transitive node subsets of a %d-node pattern: at most 64 nodes are supported", p.name, k)
	}
	level := p.singletons()
	found := slices.Clone(level)
	for size := 2; size <= k; size++ {
		level = p.growSets(level)
		for _, set := range level {
			found = p.orbitSubsets(set, found)
		}
	}
	slices.SortFunc(found, func(a, b uint64) int {
		// Of two equally large sets the one holding the lowest position they
		// do not share has the smaller sorted node list: bit-reversed, the
		// larger number.
		return cmp.Or(bits.OnesCount64(a)-bits.OnesCount64(b), cmp.Compare(bits.Reverse64(b), bits.Reverse64(a)))
	})
	return p.nodeLists(slices.Compact(found)), nil
}

// orbitSubsets appends to found, as position bitsets, every subset of at
// least two nodes of an orbit of a connected subgraph spanning the connected
// node set set: one that keeps some of P's edges among set, enough to connect
// it. Each such subgraph is a shape on set's nodes in position order, whose
// rows are the edges it keeps.
func (p *Pattern) orbitSubsets(set uint64, found []uint64) []uint64 {
	n := bits.OnesCount64(set)
	pos := make([]int, 0, n) // pos[a]: the position of the subgraph's node a
	sub := shape{labels: make([]graph.Label, n), rows: make([]uint64, n)}
	var edges [][2]int // P's edges among set, as nodes of sub
	for s := set; s != 0; s &= s - 1 {
		i, a := bits.TrailingZeros64(s), len(pos)
		pos, sub.labels[a] = append(pos, i), p.labels[i]
		for r := p.row(i)[0] & set &^ (uint64(1)<<(i+1) - 1); r != 0; r &= r - 1 {
			// A later neighbour's node is the number of set's nodes below it.
			edges = append(edges, [2]int{a, bits.OnesCount64(set & (r&-r - 1))})
		}
	}
	kept := sub.rows
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
		if !sub.connected() {
			return
		}
		perms := sub.automorphisms()
		for a, i := range pos {
			var orbit uint64
			for _, perm := range perms {
				orbit |= 1 << pos[perm[a]]
			}
			// Each orbit is taken once, at its first node.
			if orbit&(1<<i-1) != 0 {
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
