// Package pattern models query patterns (Definition 2.1.3): small connected
// labeled graphs searched for inside a large data graph. It provides
// canonical forms for duplicate elimination during mining, pattern extension
// operators, and subpattern enumeration used by the MI support measure.
package pattern

import (
	"fmt"
	"sort"
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

	// code caches CanonicalCode. Racing first calls compute equal strings,
	// so whichever pointer lands is right.
	code atomic.Pointer[string]

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

// String returns a compact description including the canonical code, which
// makes log output stable across runs.
func (p *Pattern) String() string {
	return fmt.Sprintf("Pattern(k=%d, m=%d, code=%s)", p.Size(), p.NumEdges(), p.CanonicalCode())
}

// ConnectedSubsets enumerates every connected subset of pattern nodes with
// exactly size elements, in deterministic order. It is used by the
// parameterized MNI(k) measure (Definition 2.2.9). For size == 1 it returns
// the singleton subsets.
func (p *Pattern) ConnectedSubsets(size int) [][]NodeID {
	if size <= 0 || size > p.Size() {
		return nil
	}
	var result [][]NodeID
	seen := make(map[string]bool)

	var grow func(current []NodeID, inSet map[NodeID]bool)
	grow = func(current []NodeID, inSet map[NodeID]bool) {
		if len(current) == size {
			key := subsetKey(current)
			if !seen[key] {
				seen[key] = true
				cp := make([]NodeID, len(current))
				copy(cp, current)
				sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
				result = append(result, cp)
			}
			return
		}
		// Candidates: neighbors of the current set not yet included.
		candSet := make(map[NodeID]bool)
		for v := range inSet {
			for _, w := range p.Neighbors(v) {
				if !inSet[w] {
					candSet[w] = true
				}
			}
		}
		cands := make([]NodeID, 0, len(candSet))
		for v := range candSet {
			cands = append(cands, v)
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		for _, w := range cands {
			inSet[w] = true
			grow(append(current, w), inSet)
			delete(inSet, w)
		}
	}

	for _, start := range p.nodes {
		grow([]NodeID{start}, map[NodeID]bool{start: true})
	}
	sort.Slice(result, func(i, j int) bool { return subsetKey(result[i]) < subsetKey(result[j]) })
	return result
}

// AllConnectedSubsets enumerates every connected non-empty subset of pattern
// nodes of any size, used when computing transitive node subsets over all
// subgraphs of the pattern for the MI measure.
func (p *Pattern) AllConnectedSubsets() [][]NodeID {
	var out [][]NodeID
	for size := 1; size <= p.Size(); size++ {
		out = append(out, p.ConnectedSubsets(size)...)
	}
	return out
}

// subsetKey builds a canonical string key for a node subset.
func subsetKey(vs []NodeID) string {
	cp := make([]NodeID, len(vs))
	copy(cp, vs)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	key := ""
	for _, v := range cp {
		key += fmt.Sprintf("%d,", v)
	}
	return key
}

// Subpattern returns the subgraph of the pattern induced by the given node
// subset, as a plain graph (it may be disconnected, in which case it is not a
// valid Pattern but is still useful for automorphism computations).
func (p *Pattern) Subpattern(nodes []NodeID) (*graph.Graph, error) {
	return p.Graph().InducedSubgraph(nodes)
}
