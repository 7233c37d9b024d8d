package hypergraph

import (
	"slices"
	"sync"

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
	// It is laid out under branchOnce by the first branchOrder call: only a
	// cover search reads it, and most views — an instance hypergraph, whose
	// solvers run on its kernel — are never searched.
	branchOnce sync.Once
	branch     []int32
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

// newDense is the AddEdge path to the dense view: it ranks every vertex
// mention of the built edges and lays them out.
func newDense(edges []HyperEdge) *dense {
	edgeOff := make([]int32, len(edges)+1)
	mentions := 0
	for i, e := range edges {
		mentions += len(e.Vertices)
		edgeOff[i+1] = int32(mentions)
	}
	vertices := make([]graph.VertexID, 0, mentions)
	for _, e := range edges {
		vertices = append(vertices, e.Vertices...)
	}
	slices.Sort(vertices)
	vertices = slices.Clip(slices.Compact(vertices))
	// An edge's vertex list is sorted by ID, so its ranks come out ascending.
	edgeVtx := make([]int32, 0, mentions)
	for _, e := range edges {
		for _, v := range e.Vertices {
			r, _ := slices.BinarySearch(vertices, v)
			edgeVtx = append(edgeVtx, int32(r))
		}
	}
	return layout(vertices, edgeOff, edgeVtx)
}

// layout is the one writer of a dense view: given the vertices by rank and
// every edge's ranks, ascending, under edgeOff, it lays out the incidence
// lists; it keeps all three slices. AddEdge's newDense, NewUniform and
// Kernel end here, so a hypergraph has one view whichever way its edges
// came in.
func layout(vertices []graph.VertexID, edgeOff, edgeVtx []int32) *dense {
	d := &dense{vertices: vertices, edgeOff: edgeOff, edgeVtx: edgeVtx}
	m := d.numEdges()
	d.incOff = make([]int32, len(vertices)+1)
	for _, r := range edgeVtx {
		d.incOff[r+1]++
	}
	for r := range vertices {
		d.incOff[r+1] += d.incOff[r]
	}
	// Filling in edge order leaves every incidence list ascending.
	d.incEdge = make([]int32, len(edgeVtx))
	next := slices.Clone(d.incOff[:len(vertices)])
	for e := 0; e < m; e++ {
		for _, r := range d.edge(int32(e)) {
			d.incEdge[next[r]] = int32(e)
			next[r]++
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
func (d *dense) branchOrder(e int32) []int32 {
	d.branchOnce.Do(d.layoutBranch)
	return d.branch[d.edgeOff[e]:d.edgeOff[e+1]]
}

// layoutBranch sorts every edge's ranks into its branch order. Edges are
// short: an insertion sort per edge, stable from ascending rank.
func (d *dense) layoutBranch() {
	d.branch = slices.Clone(d.edgeVtx)
	for e := 0; e < d.numEdges(); e++ {
		vs := d.branch[d.edgeOff[e]:d.edgeOff[e+1]]
		for i := 1; i < len(vs); i++ {
			for j := i; j > 0 && d.degree(vs[j]) > d.degree(vs[j-1]); j-- {
				vs[j], vs[j-1] = vs[j-1], vs[j]
			}
		}
	}
}

// incident returns the edges containing rank r, ascending.
func (d *dense) incident(r int32) []int32 { return d.incEdge[d.incOff[r]:d.incOff[r+1]] }

// degree returns the number of edges containing rank r.
func (d *dense) degree(r int32) int { return int(d.incOff[r+1] - d.incOff[r]) }

// edgeIDs returns the VertexIDs of edge e, ascending, as a fresh slice.
func (d *dense) edgeIDs(e int32) []graph.VertexID {
	vs := d.edge(e)
	out := make([]graph.VertexID, len(vs))
	for i, r := range vs {
		out[i] = d.vertices[r]
	}
	return out
}

// hyperEdges returns every edge's VertexIDs in EdgeID order, over one fresh
// flat array.
func (d *dense) hyperEdges() []HyperEdge {
	ids := make([]graph.VertexID, len(d.edgeVtx))
	for i, r := range d.edgeVtx {
		ids[i] = d.vertices[r]
	}
	out := make([]HyperEdge, d.numEdges())
	for e := range out {
		lo, hi := d.edgeOff[e], d.edgeOff[e+1]
		out[e] = HyperEdge{Vertices: ids[lo:hi:hi]}
	}
	return out
}

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
// is the first with its vertex set maps to itself. On an instance hypergraph
// distinct instances over one vertex set (the three paths of three on one
// triangle) are one class; on an occurrence hypergraph so are the |Aut(P)|
// occurrences of one instance.
func (h *Hypergraph) EdgeClasses() []EdgeID {
	d := h.view()
	classes := make([]EdgeID, d.numEdges())
	d.edgeClasses(func(e, first int32) { classes[e] = EdgeID(first) })
	return classes
}

// edgeClasses calls visit(e, first) for every edge e in EdgeID order, first
// the lowest EdgeID with e's vertex set (EdgeClasses).
func (d *dense) edgeClasses(visit func(e, first int32)) {
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
		visit(e, first[slot])
	}
}
