package hypergraph

import "repro/internal/graph"

// Kernel returns h reduced by the two data reductions of the package comment
// (Weihe 1998), applied to a fixpoint, together with origin: kernel edge i
// is what is left of edge origin[i] of h, and origin ascends. The kernel's
// vertices are h's VertexIDs that survive in some kept edge. Its minimum
// vertex cover, maximum independent edge set and packing LP optimum are
// those of h; a cover of the kernel covers h, and kernel edges mapped
// through origin are pairwise disjoint in h whenever they are in the kernel.
//
// Each call builds a new kernel and adds its size to
// repro_hypergraph_kernel_vertices_total and _edges_total.
func (h *Hypergraph) Kernel() (*Hypergraph, []EdgeID) {
	d := h.view()
	r := newReducer(d)
	if _, uniform := h.IsUniform(); uniform {
		// Edges of one size nest only when equal, so their classes are
		// enough. The superset scan of the other branch finds the same
		// edges, but over the six instance hypergraphs of the eval-measures
		// benchmark it took 4.0 ms against 1.2 ms for the whole kernel
		// build (2-core x86-64), and made an op half as long again.
		for e, first := range h.EdgeClasses() {
			if int(first) != e {
				r.dropEdge(int32(e))
			}
		}
	} else {
		for e := int32(0); e < int32(d.numEdges()); e++ {
			if r.size[e] > 0 {
				r.dropSupersets(e)
			}
		}
	}
	// From here on an edge can only come to contain another by shrinking,
	// and a vertex can only come to be dominated by losing an edge.
	for {
		if e, ok := r.edges.pop(); ok {
			if r.size[e] > 0 {
				r.dropSupersets(e)
			}
			continue
		}
		u, ok := r.vertices.pop()
		if !ok {
			break
		}
		r.checkVertex(u)
	}
	return r.kernel()
}

// reducer is the state of one Kernel call on the dense view: each edge's
// live vertices and each vertex's number of live edges, and the work lists
// of edges that shrank and vertices that lost an edge since they were last
// checked. A dropped edge has size 0 and a dropped vertex degree 0.
type reducer struct {
	d *dense
	// vtx holds, under d's edge offsets, each edge's live vertex ranks
	// ascending in its first size[e] slots.
	vtx      []int32
	size     []int32
	degree   []int32
	edges    workList
	vertices workList
}

func newReducer(d *dense) *reducer {
	m, n := d.numEdges(), len(d.vertices)
	r := &reducer{
		d:        d,
		vtx:      append([]int32(nil), d.edgeVtx...),
		size:     make([]int32, m),
		degree:   make([]int32, n),
		edges:    newWorkList(m),
		vertices: newWorkList(n),
	}
	for e := range r.size {
		r.size[e] = d.edgeOff[e+1] - d.edgeOff[e]
	}
	for u := range r.degree {
		r.degree[u] = int32(d.degree(int32(u)))
		r.vertices.push(int32(u))
	}
	return r
}

// live returns the live vertex ranks of edge e, ascending.
func (r *reducer) live(e int32) []int32 {
	off := r.d.edgeOff[e]
	return r.vtx[off : off+r.size[e]]
}

// dropEdge removes edge e; each of its vertices loses an edge and is
// checked again.
func (r *reducer) dropEdge(e int32) {
	for _, u := range r.live(e) {
		r.degree[u]--
		r.vertices.push(u)
	}
	r.size[e] = 0
}

// dropVertex removes vertex u from every live edge; each of them shrank and
// is checked again.
func (r *reducer) dropVertex(u int32) {
	r.degree[u] = 0
	for _, e := range r.d.incident(u) {
		if r.size[e] == 0 {
			continue
		}
		vs := r.live(e)
		for i, v := range vs {
			if v == u {
				copy(vs[i:], vs[i+1:])
				break
			}
		}
		r.size[e]--
		r.edges.push(e)
	}
}

// dropSupersets applies rule E around live edge e: of the live edges whose
// vertex sets contain e's, it keeps the lowest ID among those equal to e
// and drops the rest, each of which contains the kept one. A superset of e
// has every vertex of e, so only the edges at e's vertex of least degree
// are tried.
func (r *reducer) dropSupersets(e int32) {
	vs := r.live(e)
	pivot := vs[0]
	for _, u := range vs[1:] {
		if r.degree[u] < r.degree[pivot] {
			pivot = u
		}
	}
	size, keep := int32(len(vs)), e
	for _, g := range r.d.incident(pivot) {
		if g == e || r.size[g] < size || !containsAll(r.live(g), vs) {
			continue
		}
		if r.size[g] == size && g < keep {
			keep, g = g, keep
		}
		r.dropEdge(g)
	}
}

// checkVertex applies rule V to vertex u: it drops u when another live
// vertex w lies in every live edge at u — of two vertices with the same
// edges, the higher rank goes. Such a w is in u's first live edge and has
// at least u's degree, so only those vertices of that edge are tried.
func (r *reducer) checkVertex(u int32) {
	if r.degree[u] == 0 {
		return
	}
	at := r.d.incident(u)
	for r.size[at[0]] == 0 {
		at = at[1:]
	}
	for _, w := range r.live(at[0]) {
		if w == u || r.degree[w] < r.degree[u] || (r.degree[w] == r.degree[u] && w > u) {
			continue
		}
		if r.inEveryLiveEdge(w, at) {
			r.dropVertex(u)
			return
		}
	}
}

// inEveryLiveEdge reports whether vertex w lies in every live edge of at.
func (r *reducer) inEveryLiveEdge(w int32, at []int32) bool {
next:
	for _, e := range at {
		if r.size[e] == 0 {
			continue
		}
		for _, v := range r.live(e) {
			if v == w {
				continue next
			}
		}
		return false
	}
	return true
}

// containsAll reports whether ascending rank list a contains every element
// of ascending rank list b.
func containsAll(a, b []int32) bool {
	i := 0
	for _, v := range b {
		for i < len(a) && a[i] < v {
			i++
		}
		if i == len(a) || a[i] != v {
			return false
		}
		i++
	}
	return true
}

// kernel lays the live edges out as a hypergraph, in EdgeID order, and
// publishes its size.
func (r *reducer) kernel() (*Hypergraph, []EdgeID) {
	k := New()
	var origin []EdgeID
	mentions := 0
	for e, size := range r.size {
		if size > 0 {
			mentions += int(size)
			origin = append(origin, EdgeID(e))
		}
	}
	ids := make([]graph.VertexID, 0, mentions)
	k.edges = make([]HyperEdge, len(origin))
	for i, e := range origin {
		start := len(ids)
		for _, u := range r.live(int32(e)) {
			ids = append(ids, r.d.vertices[u])
		}
		k.edges[i] = HyperEdge{Vertices: ids[start:len(ids):len(ids)]}
	}
	vertices := 0
	for _, degree := range r.degree {
		if degree > 0 {
			vertices++
		}
	}
	mKernelVertices.Add(uint64(vertices))
	mKernelEdges.Add(uint64(len(origin)))
	return k, origin
}

// workList is a FIFO of ranks or edges, each queued at most once at a time.
type workList struct {
	queue  []int32
	queued []bool
}

func newWorkList(n int) workList { return workList{queued: make([]bool, n)} }

func (w *workList) push(x int32) {
	if !w.queued[x] {
		w.queued[x] = true
		w.queue = append(w.queue, x)
	}
}

func (w *workList) pop() (int32, bool) {
	if len(w.queue) == 0 {
		return 0, false
	}
	x := w.queue[0]
	w.queue = w.queue[1:]
	w.queued[x] = false
	return x, true
}
