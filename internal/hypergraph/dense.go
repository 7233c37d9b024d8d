package hypergraph

import (
	"slices"

	"repro/internal/graph"
)

// dense is the index-keyed view of a built hypergraph that every solver runs
// on. A vertex is its rank in Vertices() order, an edge its EdgeID, both as
// int32, and the two incidence relations are flat CSR arrays, so solver state
// is slices indexed by rank or edge and a search touches no map.
type dense struct {
	// vertices maps rank to VertexID, ascending: Vertices() order.
	vertices []graph.VertexID
	// edgeOff/edgeVtx: the vertices of edge e are the ranks
	// edgeVtx[edgeOff[e]:edgeOff[e+1]], ascending.
	edgeOff []int32
	edgeVtx []int32
	// branch holds, under the same offsets, each edge's vertices in the order
	// the cover search branches on them: degree descending, rank ascending.
	branch []int32
	// incOff/incEdge: the edges containing rank r are
	// incEdge[incOff[r]:incOff[r+1]], ascending.
	incOff  []int32
	incEdge []int32
}

// view returns the dense view of the edges added so far, building it on the
// first call after an AddEdge.
func (h *Hypergraph) view() *dense {
	h.denseMu.Lock()
	defer h.denseMu.Unlock()
	if h.dense == nil {
		h.dense = newDense(h.edges)
	}
	return h.dense
}

func newDense(edges []HyperEdge) *dense {
	d := &dense{edgeOff: make([]int32, len(edges)+1)}
	mentions := 0
	for i, e := range edges {
		mentions += len(e.Vertices)
		d.edgeOff[i+1] = int32(mentions)
	}
	seen := make(map[graph.VertexID]struct{})
	for _, e := range edges {
		for _, v := range e.Vertices {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				d.vertices = append(d.vertices, v)
			}
		}
	}
	slices.Sort(d.vertices)

	// An edge's vertex list is sorted by ID, so its ranks come out ascending.
	d.edgeVtx = make([]int32, mentions)
	d.incOff = make([]int32, len(d.vertices)+1)
	at := 0
	for _, e := range edges {
		for _, v := range e.Vertices {
			r, _ := d.rank(v)
			d.edgeVtx[at] = r
			d.incOff[r+1]++
			at++
		}
	}
	for r := range d.vertices {
		d.incOff[r+1] += d.incOff[r]
	}
	// Filling in edge order leaves every incidence list ascending.
	d.incEdge = make([]int32, mentions)
	next := slices.Clone(d.incOff[:len(d.vertices)])
	for e := range edges {
		for _, r := range d.edge(int32(e)) {
			d.incEdge[next[r]] = int32(e)
			next[r]++
		}
	}

	// Edges are short: an insertion sort per edge, stable from ascending rank.
	d.branch = slices.Clone(d.edgeVtx)
	for e := range edges {
		vs := d.branchOrder(int32(e))
		for i := 1; i < len(vs); i++ {
			for j := i; j > 0 && d.degree(vs[j]) > d.degree(vs[j-1]); j-- {
				vs[j], vs[j-1] = vs[j-1], vs[j]
			}
		}
	}
	return d
}

func (d *dense) numEdges() int { return len(d.edgeOff) - 1 }

// rank returns the rank of vertex v and whether the hypergraph has it.
func (d *dense) rank(v graph.VertexID) (int32, bool) {
	r, ok := slices.BinarySearch(d.vertices, v)
	return int32(r), ok
}

// edge returns the vertex ranks of edge e, ascending.
func (d *dense) edge(e int32) []int32 { return d.edgeVtx[d.edgeOff[e]:d.edgeOff[e+1]] }

// branchOrder returns the vertex ranks of edge e, highest degree first and
// lowest rank first among equals.
func (d *dense) branchOrder(e int32) []int32 { return d.branch[d.edgeOff[e]:d.edgeOff[e+1]] }

// incident returns the edges containing rank r, ascending.
func (d *dense) incident(r int32) []int32 { return d.incEdge[d.incOff[r]:d.incOff[r+1]] }

// degree returns the number of edges containing rank r.
func (d *dense) degree(r int32) int { return int(d.incOff[r+1] - d.incOff[r]) }

// ids translates a rank-indexed membership array into the sorted VertexIDs
// of its members.
func (d *dense) ids(member []bool) []graph.VertexID {
	var out []graph.VertexID
	for r, in := range member {
		if in {
			out = append(out, d.vertices[r])
		}
	}
	return out
}

// overlaps appends to buf every edge other than e that shares a vertex with
// e, each once, in no particular order. mark is the caller's stamp array with
// one entry per edge, zero before the first call; e stamps it with e+1, so
// one array serves a pass over all edges in any order.
func (d *dense) overlaps(e int32, mark, buf []int32) []int32 {
	mark[e] = e + 1
	for _, r := range d.edge(e) {
		for _, f := range d.incident(r) {
			if mark[f] != e+1 {
				mark[f] = e + 1
				buf = append(buf, f)
			}
		}
	}
	return buf
}

// EdgeClasses partitions the edges by vertex set: element e of the result is
// the lowest EdgeID whose vertex set equals that of edge e, so an edge that
// is the first with its vertex set maps to itself. The |Aut(P)| occurrences
// of one instance are one class.
func (h *Hypergraph) EdgeClasses() []EdgeID {
	d := h.view()
	m := d.numEdges()
	// An open-addressing table of the first edge of every class seen so far,
	// at most half full; edges enter in ID order, so a hit is the class name.
	size := 2
	for size < 2*m {
		size *= 2
	}
	first := make([]int32, size)
	for i := range first {
		first[i] = -1
	}
	classes := make([]EdgeID, m)
	for e := int32(0); e < int32(m); e++ {
		vs := d.edge(e)
		hash := uint64(len(vs))
		for _, r := range vs {
			hash = (hash ^ uint64(r)) * 0x9E3779B97F4A7C15
		}
		slot := int(hash>>32) & (size - 1)
		for first[slot] >= 0 && !slices.Equal(d.edge(first[slot]), vs) {
			slot = (slot + 1) & (size - 1)
		}
		if first[slot] < 0 {
			first[slot] = e
		}
		classes[e] = EdgeID(first[slot])
	}
	return classes
}
