// Package graph implements the labeled, undirected graph substrate used by
// every other component of the library: data graphs, query patterns, induced
// subgraphs and the adjacency / label indexes required for efficient subgraph
// isomorphism search.
//
// Terminology follows the paper (Definitions 2.1.1-2.1.4): a labeled graph
// G = (V_G, E_G, λ_G) has a vertex set, an edge set of unordered vertex pairs,
// and a labeling function mapping each vertex to an element of a label
// alphabet. Edges are simple (no self loops, no multi edges) and undirected.
//
// The package has two representations of one graph. A Snapshot is the frozen
// form every search and measure runs on: CSR adjacency over dense indexes,
// immutable and shared freely. A Graph is the mutable form, and it is a
// Snapshot too once it has one: an optional base snapshot plus an overlay of
// what changed since (see Graph). A graph built by mutation alone is all
// overlay; a graph restored from a store (FromSnapshot) or mutated after a
// freeze is its snapshot plus the few rows its mutations touched, so the data
// graph is held once, in CSR form, however it was made.
package graph

import (
	"fmt"
	"slices"
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
// A Graph is an optional base Snapshot plus an overlay of what changed since
// that snapshot: the vertices added (with their labels), the base vertices
// removed, a copy-on-write neighbour row for every vertex a mutation touched,
// the edges added and the base edges removed. Every read answers from the
// overlay first and the base second. A graph with no base — New, Builder,
// the dataset and gen loaders — is all overlay: its maps hold every vertex,
// row and edge. FromSnapshot wraps a snapshot as the base with an empty
// overlay, and a mutation that finds a clean cached snapshot newer than the
// base first rebases onto it and drops the overlay (see rebase), so a graph
// that is frozen between mutations — every engine's graph — holds only the
// rows its latest batch touched on top of its latest snapshot.
//
// Graph is safe for concurrent readers once fully constructed; mutation
// methods (AddVertex, AddEdge, RemoveVertex, RemoveEdge, SetName) must not
// race with readers.
type Graph struct {
	// base is the snapshot the overlay is relative to; nil for a graph built
	// by mutation alone.
	base *Snapshot

	// The overlay. labels holds the vertices that are not live base vertices
	// (added since the base, or removed from it and added again) and byLabel
	// the same vertices by label; adjacency holds the whole current row, in
	// insertion order, of every vertex in labels and of every base vertex an
	// edge mutation touched (a base vertex without one has its base row);
	// edges holds the edges not in the base. goneVertices and goneEdges hold
	// the base vertices and base edges removed since; both stay nil without
	// a base.
	labels       map[VertexID]Label
	adjacency    map[VertexID][]VertexID
	edges        map[Edge]struct{}
	byLabel      map[Label][]VertexID
	goneVertices map[VertexID]struct{}
	goneEdges    map[Edge]struct{}

	// order keeps vertex insertion order so that Vertices() is deterministic
	// regardless of map iteration order; a restored graph's order is its
	// snapshot's, increasing IDs.
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
	// shards (repro_graph_shard_builds_total counts them process-wide).
	shardBuilds atomic.Int64

	// feeds holds the open mutation feeds (see Subscribe); every structural
	// mutation is appended to each of them.
	feedMu sync.Mutex
	feeds  []*MutationFeed
}

// New returns an empty graph with an optional name used in diagnostics.
func New(name string) *Graph {
	g := &Graph{name: name}
	g.ensure()
	return g
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

// ensure allocates the overlay maps a zero-value or rebased Graph lacks.
func (g *Graph) ensure() {
	if g.labels == nil {
		g.labels = make(map[VertexID]Label)
	}
	if g.adjacency == nil {
		g.adjacency = make(map[VertexID][]VertexID)
	}
	if g.edges == nil {
		g.edges = make(map[Edge]struct{})
	}
	if g.byLabel == nil {
		g.byLabel = make(map[Label][]VertexID)
	}
}

// rebase makes the most recently used clean cached snapshot the base and
// drops the overlay, unless the base itself is still clean (then the overlay
// is empty already) or no cached snapshot is clean. A clean entry holds
// exactly the graph's current vertices, labels and edges, so nothing is lost.
// Only the mutation methods call it: they alone may not race with readers,
// while Freeze runs beside other freezes and so never rewrites the graph.
func (g *Graph) rebase() {
	if len(g.snaps) == 0 {
		// Nothing was frozen: a bulk build's path. Reading the cache without
		// the lock is safe here because no freeze may run beside a mutation.
		return
	}
	g.snapMu.Lock()
	var next *Snapshot
	var lastUse uint64
	for _, e := range g.snaps {
		if !e.clean() {
			continue
		}
		if e.snap == g.base {
			next = nil
			break
		}
		if next == nil || e.lastUse > lastUse {
			next, lastUse = e.snap, e.lastUse
		}
	}
	g.snapMu.Unlock()
	if next == nil {
		return
	}
	g.base = next
	g.labels, g.adjacency, g.edges, g.byLabel = nil, nil, nil, nil
	g.goneVertices, g.goneEdges = nil, nil
}

// baseIndex returns v's dense index in the base when v is a base vertex the
// overlay has not removed.
func (g *Graph) baseIndex(v VertexID) (int32, bool) {
	if g.base == nil {
		return 0, false
	}
	if _, gone := g.goneVertices[v]; gone {
		return 0, false
	}
	return g.base.IndexOf(v)
}

// ownRows gives u and v overlay rows, copying a base vertex's base row into
// the overlay when it has none yet, so an edge mutation can edit both rows
// in place; both must be vertices. A graph with no base has every row in
// the overlay already.
func (g *Graph) ownRows(u, v VertexID) {
	if g.base == nil {
		return
	}
	for _, w := range [2]VertexID{u, v} {
		if _, ok := g.adjacency[w]; ok {
			continue
		}
		i, _ := g.baseIndex(w)
		base := g.base.NeighborsAt(i)
		row := make([]VertexID, len(base), len(base)+1)
		for k, c := range base {
			row[k] = g.base.ID(c)
		}
		g.adjacency[w] = row
	}
}

// AddVertex adds a vertex with the given label. Adding an existing vertex
// with the same label is a no-op; re-adding it with a different label is an
// error because it would silently change the semantics of existing edges.
func (g *Graph) AddVertex(v VertexID, label Label) error {
	g.rebase()
	g.ensure()
	if existing, ok := g.LabelOf(v); ok {
		if existing != label {
			return fmt.Errorf("graph %q: vertex %d already exists with label %d (got %d)", g.name, v, existing, label)
		}
		return nil
	}
	g.labels[v] = label
	g.byLabel[label] = append(g.byLabel[label], v)
	g.order = append(g.order, v)
	g.adjacency[v] = nil
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
	g.rebase()
	g.ensure()
	if u == v {
		return fmt.Errorf("graph %q: self loop on vertex %d is not allowed", g.name, u)
	}
	if !g.HasVertex(u) {
		return fmt.Errorf("graph %q: edge (%d,%d) references unknown vertex %d", g.name, u, v, u)
	}
	if !g.HasVertex(v) {
		return fmt.Errorf("graph %q: edge (%d,%d) references unknown vertex %d", g.name, u, v, v)
	}
	e := Edge{U: u, V: v}.Normalize()
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph %q: duplicate edge %v", g.name, e)
	}
	if _, gone := g.goneEdges[e]; gone {
		delete(g.goneEdges, e)
	} else {
		g.edges[e] = struct{}{}
	}
	g.ownRows(u, v)
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
	g.rebase()
	g.ensure()
	e := Edge{U: u, V: v}.Normalize()
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph %q: cannot remove absent edge %v", g.name, e)
	}
	if _, added := g.edges[e]; added {
		delete(g.edges, e)
	} else {
		if g.goneEdges == nil {
			g.goneEdges = make(map[Edge]struct{})
		}
		g.goneEdges[e] = struct{}{}
	}
	g.ownRows(u, v)
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
	g.rebase()
	g.ensure()
	label, ok := g.LabelOf(v)
	if !ok {
		return fmt.Errorf("graph %q: cannot remove unknown vertex %d", g.name, v)
	}
	nbs := g.Neighbors(v) // sorted copy: RemoveEdge mutates the adjacency list
	for _, w := range nbs {
		if err := g.RemoveEdge(v, w); err != nil {
			return err // unreachable: the adjacency list names live edges
		}
	}
	if _, added := g.labels[v]; added {
		delete(g.labels, v)
		g.byLabel[label] = removeOne(g.byLabel[label], v)
		if len(g.byLabel[label]) == 0 {
			delete(g.byLabel, label)
		}
	} else {
		if g.goneVertices == nil {
			g.goneVertices = make(map[VertexID]struct{})
		}
		g.goneVertices[v] = struct{}{}
	}
	delete(g.adjacency, v)
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
	_, ok := g.LabelOf(v)
	return ok
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v VertexID) bool {
	e := Edge{U: u, V: v}.Normalize()
	if _, ok := g.edges[e]; ok {
		return true
	}
	if g.base == nil {
		return false
	}
	if _, gone := g.goneEdges[e]; gone {
		return false
	}
	return g.base.HasEdge(u, v)
}

// LabelOf returns the label of v. The second return value reports whether the
// vertex exists.
func (g *Graph) LabelOf(v VertexID) (Label, bool) {
	if l, ok := g.labels[v]; ok {
		return l, true
	}
	if i, ok := g.baseIndex(v); ok {
		return g.base.LabelAt(i), true
	}
	return 0, false
}

// MustLabelOf returns the label of v and panics if the vertex does not exist.
func (g *Graph) MustLabelOf(v VertexID) Label {
	l, ok := g.LabelOf(v)
	if !ok {
		panic(fmt.Sprintf("graph %q: unknown vertex %d", g.name, v))
	}
	return l
}

// NumVertices returns |V_G|.
func (g *Graph) NumVertices() int { return len(g.order) }

// NumEdges returns |E_G|.
func (g *Graph) NumEdges() int {
	n := len(g.edges)
	if g.base != nil {
		n += g.base.NumEdges() - len(g.goneEdges)
	}
	return n
}

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

// eachEdge calls yield with every edge, base edges first in increasing
// order, then the overlay's.
func (g *Graph) eachEdge(yield func(Edge)) {
	if g.base != nil {
		for i := int32(0); i < int32(g.base.n); i++ {
			u := g.base.ID(i)
			for _, c := range g.base.NeighborsAt(i) {
				if c <= i {
					continue
				}
				e := Edge{U: u, V: g.base.ID(c)}
				if _, gone := g.goneEdges[e]; !gone {
					yield(e)
				}
			}
		}
	}
	for e := range g.edges {
		yield(e)
	}
}

// Edges returns all edges in normalized (U <= V) form sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.eachEdge(func(e Edge) { out = append(out, e) })
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
	if adj, ok := g.adjacency[v]; ok {
		out := make([]VertexID, len(adj))
		copy(out, adj)
		slices.Sort(out)
		return out
	}
	i, ok := g.baseIndex(v)
	if !ok {
		return []VertexID{}
	}
	row := g.base.NeighborsAt(i)
	out := make([]VertexID, len(row))
	for k, c := range row {
		out[k] = g.base.ID(c)
	}
	return out
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v VertexID) int {
	if adj, ok := g.adjacency[v]; ok {
		return len(adj)
	}
	if i, ok := g.baseIndex(v); ok {
		return g.base.DegreeAt(i)
	}
	return 0
}

// VerticesWithLabel returns all vertices carrying the given label, sorted.
func (g *Graph) VerticesWithLabel(l Label) []VertexID {
	out := slices.Clone(g.byLabel[l])
	if g.base != nil {
		for k := range g.base.shards {
			for _, i := range g.base.shards[k].byLabel[l] {
				v := g.base.ID(i)
				if _, gone := g.goneVertices[v]; !gone {
					out = append(out, v)
				}
			}
		}
	}
	if out == nil {
		out = []VertexID{}
	}
	slices.Sort(out)
	return out
}

// Labels returns the set of distinct labels used in the graph, sorted.
func (g *Graph) Labels() []Label {
	hist := g.LabelHistogram()
	out := make([]Label, 0, len(hist))
	for l := range hist {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// LabelHistogram returns the number of vertices per label.
func (g *Graph) LabelHistogram() map[Label]int {
	out := make(map[Label]int, len(g.byLabel))
	for l, vs := range g.byLabel {
		out[l] = len(vs)
	}
	if g.base != nil {
		for k := range g.base.shards {
			for l, idx := range g.base.shards[k].byLabel {
				out[l] += len(idx)
			}
		}
		for v := range g.goneVertices {
			i, _ := g.base.IndexOf(v)
			l := g.base.LabelAt(i)
			if out[l]--; out[l] == 0 {
				delete(out, l)
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph: a graph with no base holding the
// same vertices, in the same insertion order, labels and edges.
func (g *Graph) Clone() *Graph {
	c := New(g.name)
	for _, v := range g.order {
		c.MustAddVertex(v, g.MustLabelOf(v))
	}
	g.eachEdge(func(e Edge) { c.MustAddEdge(e.U, e.V) })
	return c
}

// Equal reports whether g and h have identical vertex IDs, labels and edge
// sets. This is identity equality, not isomorphism; use the isomorph package
// for isomorphism checks.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for _, v := range g.order {
		l, _ := g.LabelOf(v)
		if hl, ok := h.LabelOf(v); !ok || hl != l {
			return false
		}
	}
	equal := true
	g.eachEdge(func(e Edge) {
		if equal && !h.HasEdge(e.U, e.V) {
			equal = false
		}
	})
	return equal
}

// String returns a compact human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%q, |V|=%d, |E|=%d, |Σ|=%d)", g.name, g.NumVertices(), g.NumEdges(), len(g.LabelHistogram()))
}
