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
// order, edges and incidence lists as flat int32 CSR, every edge's branch
// order sorted once — and every solver and accessor runs on that. A solver's
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
// Build one with New. Once built it is safe for concurrent readers; AddEdge
// must not run concurrently with anything else.
type Hypergraph struct {
	edges []HyperEdge

	// dense is the index-keyed view of the edges added so far, laid out
	// under denseMu by the first query after the last AddEdge (which has the
	// hypergraph to itself and drops the view without the lock).
	denseMu sync.Mutex
	dense   *dense
}

// New returns an empty hypergraph.
func New() *Hypergraph { return &Hypergraph{} }

// AddEdge adds an edge over the given vertex set, implicitly adding any new
// vertices, and returns its ID: the number of edges added before it. The
// vertex set must be non-empty. Duplicate vertex mentions within one edge are
// collapsed.
func (h *Hypergraph) AddEdge(vertices []graph.VertexID) (EdgeID, error) {
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
func (h *Hypergraph) NumEdges() int { return len(h.edges) }

// Vertices returns the vertex set in sorted order.
func (h *Hypergraph) Vertices() []graph.VertexID { return slices.Clone(h.view().vertices) }

// Edges returns all edges in insertion order. The returned slice shares no
// storage with the hypergraph's internal state.
func (h *Hypergraph) Edges() []HyperEdge {
	out := make([]HyperEdge, len(h.edges))
	for i, e := range h.edges {
		out[i] = HyperEdge{Vertices: slices.Clone(e.Vertices)}
	}
	return out
}

// Edge returns the edge with the given ID.
func (h *Hypergraph) Edge(id EdgeID) (HyperEdge, bool) {
	if int(id) < 0 || int(id) >= len(h.edges) {
		return HyperEdge{}, false
	}
	return HyperEdge{Vertices: slices.Clone(h.edges[id].Vertices)}, true
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
	if len(h.edges) == 0 {
		return 0, true
	}
	k := len(h.edges[0].Vertices)
	for _, e := range h.edges[1:] {
		if len(e.Vertices) != k {
			return 0, false
		}
	}
	return k, true
}

// IsSimple reports whether no edge's vertex set is a subset of another
// edge's vertex set (Definition 3.1.1).
func (h *Hypergraph) IsSimple() bool {
	for i := range h.edges {
		for j := range h.edges {
			if i == j {
				continue
			}
			if isSubset(h.edges[i].Vertices, h.edges[j].Vertices) {
				return false
			}
		}
	}
	return true
}

// isSubset reports whether sorted slice a is a subset of sorted slice b.
func isSubset(a, b []graph.VertexID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}

// String returns a compact description of the hypergraph.
func (h *Hypergraph) String() string {
	k, uniform := h.IsUniform()
	if uniform {
		return fmt.Sprintf("Hypergraph(|V|=%d, |E|=%d, %d-uniform)", h.NumVertices(), h.NumEdges(), k)
	}
	return fmt.Sprintf("Hypergraph(|V|=%d, |E|=%d, non-uniform)", h.NumVertices(), h.NumEdges())
}
