package hypergraph

import "repro/internal/obs"

// Search work counters, each published once per search from the search's own
// count. Both are deterministic for a given hypergraph, node budget and
// bound, so two runs — or two numberings of one graph — can be diffed by
// them. The kernel counters add up the size of every kernel built, which is
// deterministic for a given hypergraph.
var (
	mCoverNodes = obs.NewCounter("repro_cover_search_nodes_total",
		"branch-and-bound nodes explored by minimum vertex cover searches")
	mPackingNodes = obs.NewCounter("repro_packing_search_nodes_total",
		"branch-and-bound nodes explored by maximum independent (edge) set searches")
	mKernelVertices = obs.NewCounter("repro_hypergraph_kernel_vertices_total",
		"vertices of the kernels built by Hypergraph.Kernel")
	mKernelEdges = obs.NewCounter("repro_hypergraph_kernel_edges_total",
		"edges of the kernels built by Hypergraph.Kernel")
)
