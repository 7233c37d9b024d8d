package graph

// FromSnapshot materializes a mutable Graph with exactly the vertices,
// labels and edges of a frozen snapshot. It is the inverse of Freeze, used
// by the durable store to reopen a persisted graph for in-place mutation:
// the snapshot's dense indexes are translated back to VertexIDs and each
// undirected edge is added once. Vertices are added in increasing ID order,
// so the restored graph's insertion order is deterministic.
//
// The snapshot knows every size up front, so the graph's vertex and edge
// tables are allocated at their final size and every adjacency row at its
// vertex's degree, cut from one array (a row that outgrows its degree later
// moves out of it, as any appended slice does); nothing grows while it is
// filled. Vertices and edges still go through AddVertex and AddEdge, with
// every check those make.
func FromSnapshot(snap *Snapshot) *Graph {
	n := int32(snap.NumVertices())
	g := &Graph{
		labels:    make(map[VertexID]Label, n),
		adjacency: make(map[VertexID][]VertexID, n),
		edges:     make(map[Edge]struct{}, snap.NumEdges()),
		byLabel:   make(map[Label][]VertexID),
		order:     make([]VertexID, 0, n),
		name:      snap.Name(),
	}
	rows := make([]VertexID, 2*snap.NumEdges())
	for i := int32(0); i < n; i++ {
		v := snap.ID(i)
		g.MustAddVertex(v, snap.LabelAt(i))
		deg := snap.DegreeAt(i)
		g.adjacency[v], rows = rows[:0:deg], rows[deg:]
	}
	for i := int32(0); i < n; i++ {
		u := snap.ID(i)
		for _, nb := range snap.NeighborsAt(i) {
			if nb > i {
				g.MustAddEdge(u, snap.ID(nb))
			}
		}
	}
	return g
}

// SharesShard reports whether shard k of s is backed by the same CSR arrays
// as shard k of prev — the identity the incremental refreeze establishes for
// clean shards, which the store's incremental rewrite uses to skip segments
// whose bytes cannot have changed. Array identity (not content equality) is
// the test: a rebuilt shard always allocates fresh arrays, and a clean shard
// whose colIdx was remapped after a shifting insert or removal got a fresh
// column array precisely because its contents changed.
func (s *Snapshot) SharesShard(prev *Snapshot, k int) bool {
	if prev == nil || k >= len(s.shards) || k >= len(prev.shards) {
		return false
	}
	a, b := &s.shards[k], &prev.shards[k]
	return a.lo == b.lo &&
		sameBacking(len(a.ids), len(b.ids), func() bool { return &a.ids[0] == &b.ids[0] }) &&
		sameBacking(len(a.labels), len(b.labels), func() bool { return &a.labels[0] == &b.labels[0] }) &&
		sameBacking(len(a.rowPtr), len(b.rowPtr), func() bool { return &a.rowPtr[0] == &b.rowPtr[0] }) &&
		sameBacking(len(a.colIdx), len(b.colIdx), func() bool { return &a.colIdx[0] == &b.colIdx[0] })
}

// sameBacking reports whether two slices of equal length share their first
// element (and therefore, for the append-free arrays built by the freezer,
// their whole backing). Two empty slices are trivially identical.
func sameBacking(la, lb int, sameFirst func() bool) bool {
	if la != lb {
		return false
	}
	if la == 0 {
		return true
	}
	return sameFirst()
}
