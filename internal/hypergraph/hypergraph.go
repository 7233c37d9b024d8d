// Package hypergraph implements the hypergraph substrate of the paper's
// framework (Definitions 3.1.1-3.1.3) together with the combinatorial
// optimization problems the support measures reduce to: minimum vertex cover,
// maximum independent edge set (set packing), maximum independent set on the
// projected overlap graph, and minimum clique partition. Exact solvers are
// branch and bound under a node budget; each has a polynomial greedy
// companion used as a bound and as the approximate measure variant.
//
// A Hypergraph is built edge by edge and then queried. Building keeps nothing
// but the edge list; the first query lays the built hypergraph out once as a
// dense, index-keyed view (dense.go) — vertices ranked 0..|V|-1 in Vertices()
// order, edges and incidence lists as flat int32 CSR — and every solver and
// accessor runs on that. A k-uniform hypergraph whose caller has its vertices
// ranked already — the instance hypergraph, ranked by the snapshot's dense
// indexes — is built by NewUniform from the ranks, and a kernel by Kernel
// from the ranks that survive: both are their dense view and nothing else,
// and the VertexIDs of an edge are read off the view (vertices[rank]) only
// when Edges or Edge asks for them. All three ways end in one layout
// function, which alone writes the CSR arrays, so they give the same view of
// the same edges; the cover search's branch orders are laid out on its first
// call, because most hypergraphs are never searched. A solver's
// state is then a handful of slices indexed by rank or EdgeID: a search node
// of MinimumVertexCover costs the incidence list of the vertex it branches on
// plus one pass over the still-uncovered edges, and nothing is hashed or
// allocated inside a search. The view changes what a node costs, not which
// nodes there are: branching order, bounds and incumbents are those of the
// map-based searches kept in reference_test.go, which FuzzSolverTrees holds
// the solvers to node for node. repro_cover_search_nodes_total and
// repro_packing_search_nodes_total count the nodes.
//
// Kernel shrinks a hypergraph before it is solved, by the two set-cover data
// reductions of Weihe ("Covering trains by stations or the power of data
// reduction", 1998), applied to a fixpoint:
//
//   - (E) an edge that contains another edge goes; of edges over one vertex
//     set the lowest EdgeID stays. A cover of the smaller edge covers the
//     larger, and a packing holding the larger may hold the smaller instead.
//   - (V) a vertex u goes when another vertex w lies in every edge at u; of
//     two vertices in the same edges the lower rank stays. A cover holding u
//     may hold w instead, and two edges that meet at u meet at w, so no
//     packing changes.
//
// Both arguments hold for fractional covers and packings too, so the kernel
// keeps the minimum vertex cover, the maximum independent edge set and the
// packing LP's optimum ν, and its witnesses are the hypergraph's: a cover of
// the kernel covers every edge (a dropped edge contains a kept one), and
// kernel edges named by their origin EdgeIDs are disjoint in the hypergraph
// when they are in the kernel. An instance hypergraph repeats vertex sets and
// hangs many edges off a few hub vertices, so its kernel is usually tens of
// edges where the hypergraph has thousands.
package hypergraph

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
)

// EdgeID indexes an edge of a hypergraph.
type EdgeID int

// HyperEdge is a non-empty subset of hypergraph vertices. Its EdgeID — its
// position in insertion order — is its only identity and what distinguishes
// it from other edges over the same vertex set (the paper's f_i: the
// instance hypergraph has one edge per instance, in instance order, and two
// instances may share a vertex set).
type HyperEdge struct {
	Vertices []graph.VertexID
}

// Hypergraph is a hypergraph H = (V, E) whose edges are told apart by
// position. Vertices are data-graph vertex IDs; edges are vertex subsets.
// Build one with New and AddEdge, or with NewUniform. Once built it is safe
// for concurrent readers; AddEdge must not run concurrently with anything
// else.
type Hypergraph struct {
	// edges is AddEdge's builder: the edges added so far. It is nil on a
	// hypergraph from NewUniform or Kernel, which is its dense view alone.
	edges []HyperEdge

	// dense is the index-keyed view of the edges, laid out under denseMu by
	// the first query after the last AddEdge (which has the hypergraph to
	// itself and drops the view without the lock), or at once by NewUniform
	// and Kernel.
	denseMu sync.Mutex
	dense   *dense
}

// New returns an empty hypergraph.
func New() *Hypergraph { return &Hypergraph{} }

// AddEdge adds an edge over the given vertex set, implicitly adding any new
// vertices, and returns its ID: the number of edges added before it. The
// vertex set must be non-empty. Duplicate vertex mentions within one edge are
// collapsed. On a hypergraph from NewUniform or Kernel the first AddEdge
// copies the view's edges into the builder.
func (h *Hypergraph) AddEdge(vertices []graph.VertexID) (EdgeID, error) {
	if h.edges == nil && h.dense != nil {
		h.edges = h.dense.hyperEdges()
	}
	if len(vertices) == 0 {
		return 0, fmt.Errorf("hypergraph: edge %d has an empty vertex set", len(h.edges))
	}
	vs := slices.Clone(vertices)
	slices.Sort(vs)
	vs = slices.Compact(vs)
	id := EdgeID(len(h.edges))
	h.edges = append(h.edges, HyperEdge{Vertices: vs})
	h.dense = nil
	return id, nil
}

// NewUniform returns the k-uniform hypergraph over vertices, ascending
// VertexIDs each in some edge, whose edge e is the vertices of ranks
// ranks[e*k:(e+1)*k]: k distinct ranks in any order, which NewUniform sorts
// in place. The hypergraph keeps both slices, and the caller must not touch
// them again. It is its dense view, laid out at once over the ranks, and
// holds no VertexID of an edge: Edges and Edge read them off the view. Its
// edges, Vertices(), incidence lists and branch orders are those that New
// and AddEdge would build from the same vertex sets in the same order.
func NewUniform(vertices []graph.VertexID, k int, ranks []int32) *Hypergraph {
	if k <= 0 || len(ranks)%k != 0 {
		panic(fmt.Sprintf("hypergraph: %d ranks are no whole number of %d-vertex edges", len(ranks), k))
	}
	m := len(ranks) / k
	edgeOff := make([]int32, m+1)
	for e := 0; e < m; e++ {
		lo, hi := e*k, (e+1)*k
		vs := ranks[lo:hi]
		for i := 1; i < k; i++ {
			for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
				vs[j], vs[j-1] = vs[j-1], vs[j]
			}
		}
		for i := 1; i < k; i++ {
			if vs[i] == vs[i-1] {
				panic(fmt.Sprintf("hypergraph: edge %d names rank %d twice", e, vs[i]))
			}
		}
		edgeOff[e+1] = int32(hi)
	}
	return &Hypergraph{dense: layout(vertices, edgeOff, ranks)}
}

// MustAddEdge is AddEdge but panics on error.
func (h *Hypergraph) MustAddEdge(vertices []graph.VertexID) EdgeID {
	id, err := h.AddEdge(vertices)
	if err != nil {
		panic(err)
	}
	return id
}

// NumVertices returns |V|.
func (h *Hypergraph) NumVertices() int { return len(h.view().vertices) }

// NumEdges returns |E|.
func (h *Hypergraph) NumEdges() int {
	if h.edges != nil {
		return len(h.edges)
	}
	return h.view().numEdges()
}

// Vertices returns the vertex set in sorted order.
func (h *Hypergraph) Vertices() []graph.VertexID { return slices.Clone(h.view().vertices) }

// Edges returns all edges in insertion order. The returned slice shares no
// storage with the hypergraph's internal state.
func (h *Hypergraph) Edges() []HyperEdge { return h.view().hyperEdges() }

// Edge returns the edge with the given ID.
func (h *Hypergraph) Edge(id EdgeID) (HyperEdge, bool) {
	d := h.view()
	if int(id) < 0 || int(id) >= d.numEdges() {
		return HyperEdge{}, false
	}
	return HyperEdge{Vertices: d.edgeIDs(int32(id))}, true
}

// IncidentEdges returns the IDs of the edges containing vertex v, ascending.
func (h *Hypergraph) IncidentEdges(v graph.VertexID) []EdgeID {
	d := h.view()
	r, ok := d.rank(v)
	if !ok {
		return nil
	}
	ids := d.incident(r)
	out := make([]EdgeID, len(ids))
	for i, e := range ids {
		out[i] = EdgeID(e)
	}
	return out
}

// VertexDegree returns the number of edges containing v.
func (h *Hypergraph) VertexDegree(v graph.VertexID) int {
	d := h.view()
	r, ok := d.rank(v)
	if !ok {
		return 0
	}
	return len(d.incident(r))
}

// IsUniform reports whether all edges have the same cardinality and, if so,
// returns that cardinality k. The occurrence hypergraph of a k-node pattern
// is always k-uniform (Section 4.4).
func (h *Hypergraph) IsUniform() (int, bool) {
	d := h.view()
	if d.numEdges() == 0 {
		return 0, true
	}
	k := d.edgeOff[1]
	for e := 1; e < d.numEdges(); e++ {
		if d.edgeOff[e+1]-d.edgeOff[e] != k {
			return 0, false
		}
	}
	return int(k), true
}

// IsSimple reports whether no edge's vertex set is a subset of another
// edge's vertex set (Definition 3.1.1).
func (h *Hypergraph) IsSimple() bool {
	d := h.view()
	for i := int32(0); i < int32(d.numEdges()); i++ {
		for j := int32(0); j < int32(d.numEdges()); j++ {
			if i != j && containsAll(d.edge(j), d.edge(i)) {
				return false
			}
		}
	}
	return true
}

// String returns a compact description of the hypergraph.
func (h *Hypergraph) String() string {
	k, uniform := h.IsUniform()
	if uniform {
		return fmt.Sprintf("Hypergraph(|V|=%d, |E|=%d, %d-uniform)", h.NumVertices(), h.NumEdges(), k)
	}
	return fmt.Sprintf("Hypergraph(|V|=%d, |E|=%d, non-uniform)", h.NumVertices(), h.NumEdges())
}
