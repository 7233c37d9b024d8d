// Package graph implements the labeled, undirected graph substrate used by
// every other component of the library: data graphs, query patterns, induced
// subgraphs and the adjacency / label indexes required for efficient subgraph
// isomorphism search.
//
// Terminology follows the paper (Definitions 2.1.1-2.1.4): a labeled graph
// G = (V_G, E_G, λ_G) has a vertex set, an edge set of unordered vertex pairs,
// and a labeling function mapping each vertex to an element of a label
// alphabet. Edges are simple (no self loops, no multi edges) and undirected.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// VertexID identifies a vertex inside a single Graph. IDs are dense indexes
// in the range [0, NumVertices()) once a graph is built with Builder or
// loaded from a dataset, but the Graph type itself accepts arbitrary
// non-negative IDs to keep the paper's examples (which number vertices from 1)
// readable.
type VertexID int

// Label is a vertex label drawn from the alphabet Σ of the labeling function.
type Label int

// Edge is an undirected edge between two vertices. The zero value is not a
// valid edge. Edges are stored in normalized form (U <= V) inside Graph.
type Edge struct {
	U, V VertexID
}

// Normalize returns the edge with endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v VertexID) VertexID {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is a vertex-labeled, undirected, simple graph. The zero value is an
// empty graph ready for use, but most callers should use NewBuilder or the
// dataset package to construct graphs.
//
// Graph is safe for concurrent readers once fully constructed; mutation
// methods (AddVertex, AddEdge, RemoveVertex, RemoveEdge, SetName) must not
// race with readers.
type Graph struct {
	labels    map[VertexID]Label
	adjacency map[VertexID][]VertexID
	edges     map[Edge]struct{}
	byLabel   map[Label][]VertexID

	// order keeps vertex insertion order so that Vertices() is deterministic
	// regardless of map iteration order.
	order []VertexID

	name string

	// snaps caches the CSR snapshots built by Freeze/FreezeSharded, keyed by
	// resolved shard-size shift. Mutations do not drop entries: they mark the
	// affected shards dirty and the next freeze rebuilds only those (see
	// FreezeSharded). snapClock orders entries for LRU eviction.
	snapMu    sync.Mutex
	snaps     map[int]*snapEntry
	snapClock uint64
	// snapGen increments on DropSnapshots so an in-flight freeze that built
	// its CSR before the drop does not repopulate the cache afterwards.
	snapGen uint64
	// shardBuilds counts CSR shard constructions over the graph's lifetime;
	// tests use it to assert that incremental refreezes rebuild only dirty
	// shards.
	shardBuilds atomic.Int64

	// feeds holds the open mutation feeds (see Subscribe); every structural
	// mutation is appended to each of them.
	feedMu sync.Mutex
	feeds  []*MutationFeed
}

// New returns an empty graph with an optional name used in diagnostics.
func New(name string) *Graph {
	return &Graph{
		labels:    make(map[VertexID]Label),
		adjacency: make(map[VertexID][]VertexID),
		edges:     make(map[Edge]struct{}),
		byLabel:   make(map[Label][]VertexID),
		name:      name,
	}
}

// Name returns the graph's diagnostic name.
func (g *Graph) Name() string { return g.name }

// SetName sets the graph's diagnostic name. The CSR structure of cached
// snapshots is untouched: each cached entry is patched to a shallow copy
// carrying the new name, so renaming never forces a rebuild (snapshots
// already handed out keep the old name — snapshots are immutable). Like
// every mutation method, SetName must not race with readers, Freeze
// included.
func (g *Graph) SetName(name string) {
	g.name = name
	g.renameSnapshots(name)
}

// ensure initializes the internal maps of a zero-value Graph.
func (g *Graph) ensure() {
	if g.labels == nil {
		g.labels = make(map[VertexID]Label)
		g.adjacency = make(map[VertexID][]VertexID)
		g.edges = make(map[Edge]struct{})
		g.byLabel = make(map[Label][]VertexID)
	}
}

// AddVertex adds a vertex with the given label. Adding an existing vertex
// with the same label is a no-op; re-adding it with a different label is an
// error because it would silently change the semantics of existing edges.
func (g *Graph) AddVertex(v VertexID, label Label) error {
	g.ensure()
	if existing, ok := g.labels[v]; ok {
		if existing != label {
			return fmt.Errorf("graph %q: vertex %d already exists with label %d (got %d)", g.name, v, existing, label)
		}
		return nil
	}
	g.labels[v] = label
	g.byLabel[label] = append(g.byLabel[label], v)
	g.order = append(g.order, v)
	if _, ok := g.adjacency[v]; !ok {
		g.adjacency[v] = nil
	}
	g.noteVertexAdded(v)
	g.notifyFeeds(Mutation{Kind: MutVertexAdded, U: v, Label: label})
	return nil
}

// MustAddVertex is AddVertex but panics on error. It is intended for tests
// and for the hand-built figures from the paper.
func (g *Graph) MustAddVertex(v VertexID, label Label) {
	if err := g.AddVertex(v, label); err != nil {
		panic(err)
	}
}

// AddEdge adds an undirected edge between u and v. Both endpoints must
// already exist. Self loops and duplicate edges are rejected.
func (g *Graph) AddEdge(u, v VertexID) error {
	g.ensure()
	if u == v {
		return fmt.Errorf("graph %q: self loop on vertex %d is not allowed", g.name, u)
	}
	if _, ok := g.labels[u]; !ok {
		return fmt.Errorf("graph %q: edge (%d,%d) references unknown vertex %d", g.name, u, v, u)
	}
	if _, ok := g.labels[v]; !ok {
		return fmt.Errorf("graph %q: edge (%d,%d) references unknown vertex %d", g.name, u, v, v)
	}
	e := Edge{U: u, V: v}.Normalize()
	if _, ok := g.edges[e]; ok {
		return fmt.Errorf("graph %q: duplicate edge %v", g.name, e)
	}
	g.edges[e] = struct{}{}
	g.adjacency[u] = append(g.adjacency[u], v)
	g.adjacency[v] = append(g.adjacency[v], u)
	g.noteEdgeTouched(u, v)
	g.notifyFeeds(Mutation{Kind: MutEdgeAdded, U: e.U, V: e.V})
	return nil
}

// MustAddEdge is AddEdge but panics on error.
func (g *Graph) MustAddEdge(u, v VertexID) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge removes the undirected edge {u, v}. Removing an absent edge is
// an error, and a failed removal changes nothing observable: no shard is
// dirtied and no mutation reaches subscribed feeds.
func (g *Graph) RemoveEdge(u, v VertexID) error {
	g.ensure()
	e := Edge{U: u, V: v}.Normalize()
	if _, ok := g.edges[e]; !ok {
		return fmt.Errorf("graph %q: cannot remove absent edge %v", g.name, e)
	}
	delete(g.edges, e)
	g.adjacency[u] = removeOne(g.adjacency[u], v)
	g.adjacency[v] = removeOne(g.adjacency[v], u)
	g.noteEdgeTouched(u, v)
	g.notifyFeeds(Mutation{Kind: MutEdgeRemoved, U: e.U, V: e.V})
	return nil
}

// MustRemoveEdge is RemoveEdge but panics on error.
func (g *Graph) MustRemoveEdge(u, v VertexID) {
	if err := g.RemoveEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveVertex removes v and every edge incident to it. The cascade removes
// the incident edges first (each recorded as its own MutEdgeRemoved, in
// increasing neighbor order) and then the vertex itself, so feed subscribers
// replaying the stream never see an edge referencing a vertex that is already
// gone. Removing an unknown vertex is an error, and a failed removal changes
// nothing observable: no shard is dirtied and no mutation reaches feeds.
func (g *Graph) RemoveVertex(v VertexID) error {
	g.ensure()
	label, ok := g.labels[v]
	if !ok {
		return fmt.Errorf("graph %q: cannot remove unknown vertex %d", g.name, v)
	}
	nbs := g.Neighbors(v) // sorted copy: RemoveEdge mutates the adjacency list
	for _, w := range nbs {
		if err := g.RemoveEdge(v, w); err != nil {
			return err // unreachable: the adjacency list names live edges
		}
	}
	delete(g.labels, v)
	delete(g.adjacency, v)
	g.byLabel[label] = removeOne(g.byLabel[label], v)
	if len(g.byLabel[label]) == 0 {
		delete(g.byLabel, label)
	}
	g.order = removeOne(g.order, v)
	g.noteVertexRemoved(v)
	g.notifyFeeds(Mutation{Kind: MutVertexRemoved, U: v, Label: label})
	return nil
}

// MustRemoveVertex is RemoveVertex but panics on error.
func (g *Graph) MustRemoveVertex(v VertexID) {
	if err := g.RemoveVertex(v); err != nil {
		panic(err)
	}
}

// removeOne deletes the first occurrence of x from s in place, preserving the
// order of the remaining elements.
func removeOne(s []VertexID, x VertexID) []VertexID {
	for i, y := range s {
		if y == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// HasVertex reports whether v is a vertex of the graph.
func (g *Graph) HasVertex(v VertexID) bool {
	_, ok := g.labels[v]
	return ok
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v VertexID) bool {
	_, ok := g.edges[Edge{U: u, V: v}.Normalize()]
	return ok
}

// LabelOf returns the label of v. The second return value reports whether the
// vertex exists.
func (g *Graph) LabelOf(v VertexID) (Label, bool) {
	l, ok := g.labels[v]
	return l, ok
}

// MustLabelOf returns the label of v and panics if the vertex does not exist.
func (g *Graph) MustLabelOf(v VertexID) Label {
	l, ok := g.labels[v]
	if !ok {
		panic(fmt.Sprintf("graph %q: unknown vertex %d", g.name, v))
	}
	return l
}

// NumVertices returns |V_G|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns |E_G|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Vertices returns all vertex IDs in insertion order. The returned slice is a
// copy and may be modified by the caller.
func (g *Graph) Vertices() []VertexID {
	out := make([]VertexID, len(g.order))
	copy(out, g.order)
	return out
}

// SortedVertices returns all vertex IDs in increasing numeric order.
func (g *Graph) SortedVertices() []VertexID {
	out := g.Vertices()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns all edges in normalized (U <= V) form sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Neighbors returns the adjacency list of v sorted in increasing order. The
// returned slice is a copy.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	adj := g.adjacency[v]
	out := make([]VertexID, len(adj))
	copy(out, adj)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v VertexID) int { return len(g.adjacency[v]) }

// VerticesWithLabel returns all vertices carrying the given label, sorted.
func (g *Graph) VerticesWithLabel(l Label) []VertexID {
	vs := g.byLabel[l]
	out := make([]VertexID, len(vs))
	copy(out, vs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Labels returns the set of distinct labels used in the graph, sorted.
func (g *Graph) Labels() []Label {
	out := make([]Label, 0, len(g.byLabel))
	for l := range g.byLabel {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LabelHistogram returns the number of vertices per label.
func (g *Graph) LabelHistogram() map[Label]int {
	out := make(map[Label]int, len(g.byLabel))
	for l, vs := range g.byLabel {
		out[l] = len(vs)
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.name)
	for _, v := range g.order {
		c.MustAddVertex(v, g.labels[v])
	}
	for e := range g.edges {
		c.MustAddEdge(e.U, e.V)
	}
	return c
}

// InducedSubgraph returns the subgraph induced by the given vertex set: all
// listed vertices (which must exist) plus every edge of g whose endpoints are
// both in the set.
func (g *Graph) InducedSubgraph(vs []VertexID) (*Graph, error) {
	sub := New(g.name + "/induced")
	in := make(map[VertexID]bool, len(vs))
	for _, v := range vs {
		l, ok := g.labels[v]
		if !ok {
			return nil, fmt.Errorf("graph %q: induced subgraph references unknown vertex %d", g.name, v)
		}
		if in[v] {
			continue
		}
		in[v] = true
		sub.MustAddVertex(v, l)
	}
	for e := range g.edges {
		if in[e.U] && in[e.V] {
			sub.MustAddEdge(e.U, e.V)
		}
	}
	return sub, nil
}

// Equal reports whether g and h have identical vertex IDs, labels and edge
// sets. This is identity equality, not isomorphism; use the isomorph package
// for isomorphism checks.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for v, l := range g.labels {
		hl, ok := h.labels[v]
		if !ok || hl != l {
			return false
		}
	}
	for e := range g.edges {
		if _, ok := h.edges[e]; !ok {
			return false
		}
	}
	return true
}

// String returns a compact human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%q, |V|=%d, |E|=%d, |Σ|=%d)", g.name, g.NumVertices(), g.NumEdges(), len(g.byLabel))
}
