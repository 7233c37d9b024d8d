// Package core assembles the paper's hypergraph framework: given a data
// graph and a pattern it enumerates the pattern's instances, builds the
// instance hypergraph H_I (Definition 3.1.4: one edge per instance, over its
// vertex set) and classifies pairwise overlaps between occurrences (simple,
// harmful and structural overlap, Section 4.5). All support measures in the
// measures package are computed from a Context produced here.
//
// Context construction runs on the streaming parallel enumeration engine of
// package isomorph, one search per context. The pattern's symmetry is derived
// once (isomorph.NewSymmetry) and handed to the search, which then finds one
// representative occurrence per instance instead of all |Aut(P)| of them;
// every worker folds the representatives it is lent into one accumulator —
// their count and the MNI domain table, one presence mask per node orbit
// over the snapshot's dense vertex indexes (table.go) — and the accumulators
// are merged once enumeration finishes. The instance count is the number of
// representatives, the occurrence count is |Aut(P)| times that, and a node's
// MNI domain size is the number of indexes in its orbit's row, which is all
// that MNI and the raw counts need. In streaming mode only those aggregates
// survive. The miner's streamed context (NewDomainContext) and the
// incremental miner's first pass of a DeltaContext (NewDeltaContextAt) also
// hand the rows back as the domains, and their search may be confined to the
// rows of the level below.
//
// In the default (materialized) mode the same search also keeps what it
// counts (isomorph.ListSnapshot): every representative, copied out as its
// instance's smallest automorphic copy and listed in canonical order, which
// is identical for every parallelism and shard setting. Edge i of the
// hypergraph is instance i. The instances are in the order of their first
// occurrences in the full occurrence list, so every vertex set's first edge
// keeps its place relative to the others, and a solver that reads edges in
// order (the LP above all) meets the vertex sets in the order it would on the
// occurrence hypergraph H_O, which repeats every edge |Aut(P)| times. The
// context never leaves the snapshot's dense indexes: the list is k-tuples of
// them, a mark array over the snapshot's width numbered in index order turns
// them into H_I's vertex ranks, and the context keeps each instance as that
// rank tuple, aligned with the pattern's nodes (InstanceRanks) —
// hypergraph.NewUniform lays a copy of the tuples out as H_I's dense view
// directly, which is all H_I is: no VertexID is hashed, searched for or
// written per vertex mention on the way. MI and
// MNIk read an instance's other occurrences off its tuple through the
// symmetry's position permutations. No Occurrence is made unless one is
// read: Instances() expands the tuples on its first call and Occurrences()
// expands those under the symmetry, both once — only the harmful- and
// structural-overlap measures and CountOverlaps read the occurrences. H_I's
// kernel (hypergraph.Kernel) is built on first use too: the LP relaxation and
// the exact cover and packing measures read it — it has their optima,
// usually in tens of edges where H_I has thousands — and the exact packings
// are read back onto H_I's EdgeIDs; MNI, MI and the approximations never
// build it.
//
// DeltaContext keeps the streamed aggregates alive across graph mutations, in
// a complete pass's own table kept alive, one presence row per node orbit:
// after the pass every update adds and subtracts the instances that use its
// mutated edges and vertices, one representative at a time, and re-checks the
// vertices the subtracted ones used. The mutation ball around the batch's dirty
// vertices is kept as a size only — it decides between the delta passes and a
// rebuild and feeds one histogram.
package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/isomorph"
	"repro/internal/lp"
	"repro/internal/pattern"
)

// Context bundles a pattern, a data graph, the aggregates of the pattern's
// occurrences and — unless built with Options.Streaming — the instance list
// and the instance hypergraph, whose edge i is instance i. A Context is
// immutable after construction (its lazily filled state is filled once, under
// a sync.Once) and safe for concurrent readers, so one Context can feed many
// measure computations.
type Context struct {
	g *graph.Graph
	p *pattern.Pattern

	// Streamed aggregates, valid in both modes.
	numOccurrences int
	numInstances   int
	// domainSizes[i] is the number of distinct data vertices the occurrences
	// map pattern node Pattern().Nodes()[i] to (the MNI domain size).
	domainSizes []int

	// mat is the materialized state; nil when the context was built with
	// Streaming.
	mat *materialized

	// transitive holds the pattern's transitive node subsets and pairs their
	// two-node members as position pairs, computed on first use from the
	// pattern alone (they do not depend on the data graph), at most once, so
	// concurrent measure computations stay safe.
	transitiveOnce sync.Once
	transitive     [][]pattern.NodeID
	pairs          [][2]int
	transitiveErr  error
}

// materialized is what a context holds beyond the aggregates unless it was
// built with Options.Streaming. Its lazily filled state is filled at most
// once, like the transitive node subsets.
type materialized struct {
	// sym is Aut(P), which the search was broken by.
	sym *isomorph.Symmetry
	// ranks is one tuple per instance, its smallest automorphic copy, in
	// canonical order: ranks[i*k:(i+1)*k] are instance i's images as ranks
	// in h's Vertices(), aligned with the pattern's nodes; edge i of h is
	// tuple i's vertex set.
	ranks []int32
	h     *hypergraph.Hypergraph
	// instances is ranks expanded into occurrences, on first use.
	instancesOnce sync.Once
	instances     []*isomorph.Occurrence
	// kernel is h reduced (hypergraph.Kernel), built on first use by the LP
	// relaxation or an exact cover or packing; kernel edge i is edge
	// origin[i] of h.
	kernelOnce sync.Once
	kernel     *hypergraph.Hypergraph
	origin     []hypergraph.EdgeID
	// relaxation is the packing LP optimum of the kernel, solved on first
	// use; its Packing is indexed by kernel edge.
	relaxationOnce sync.Once
	relaxation     lp.RelaxationResult
	// occurrences is the instances expanded under sym, on first use.
	occurrencesOnce sync.Once
	occurrences     []*isomorph.Occurrence
}

// Options configures context construction.
type Options struct {
	// Parallelism is the worker count of the enumeration engine: 0 picks
	// GOMAXPROCS (with a sequential fallback on tiny inputs), 1 forces the
	// sequential path, higher values are used as given. The resulting
	// Context is identical for every setting.
	Parallelism int
	// Shards is the CSR shard count of the frozen snapshot enumeration runs
	// on: 0 keeps the graph's automatic sharding, positive values split the
	// vertex range into at most that many contiguous shards (see
	// graph.FreezeOptions). The resulting Context is identical for every
	// setting.
	Shards int
	// Streaming skips materializing the instance list and the instance
	// hypergraph; only the incremental aggregates (occurrence and instance
	// counts, MNI domain tables) are kept. Measures that need the
	// materialized state (MI, MVC, MIS/MIES, the LP relaxations, MCP) return
	// an error on a streaming context.
	Streaming bool
	// Snapshot pins enumeration to an explicit frozen snapshot instead of
	// freezing the graph. This is how contexts are built over snapshots that
	// have no mutable Graph behind them — above all the mmap-backed
	// snapshots of the out-of-core shard store (internal/store) — and the
	// graph argument of NewContext may then be nil (Context.Graph returns
	// nil in that case). Shards is ignored: the snapshot's own shard
	// geometry applies.
	Snapshot *graph.Snapshot
}

// NewContext enumerates the instances of p in g and builds the configured
// amount of derived state (see Options).
func NewContext(g *graph.Graph, p *pattern.Pattern, opts Options) (*Context, error) {
	if (g == nil && opts.Snapshot == nil) || p == nil {
		return nil, fmt.Errorf("core: nil graph or pattern")
	}
	ctx := &Context{g: g, p: p}

	snap := opts.Snapshot
	if snap == nil {
		snap = g.FreezeSharded(graph.FreezeOptions{Shards: opts.Shards})
	}
	all, mat := ctx.stream(snap, opts.Parallelism, nil, !opts.Streaming)
	ctx.domainSizes = all.table.sizes()
	ctx.mat = mat
	return ctx, nil
}

// NewDomainContext is the miner's context: the streamed context of p over
// snap — NewContext with Streaming and Snapshot — whose search is confined to
// masks (isomorph.Options.Masks, aligned with p.Nodes(); nil for none),
// returned with the MNI domain of every node of p as a mask over snap. Masks
// that hold every node's images in every occurrence leave the context what it
// is without them. A frequent pattern's domains are what the miner confines
// the searches of the next level with.
func NewDomainContext(snap *graph.Snapshot, p *pattern.Pattern, parallelism int, masks []isomorph.Mask) (*Context, []isomorph.Mask) {
	ctx := &Context{p: p}
	all, _ := ctx.stream(snap, parallelism, masks, false)
	ctx.domainSizes = all.table.sizes()
	return ctx, all.table.domains()
}

// stream fills the context's counts from its one search over snap, confined
// to masks, and returns the pass's merged accumulator, whose table the caller
// reads the domains off. The search finds one representative per instance,
// each standing for |Aut(P)| occurrences, and every worker folds the ones it
// is lent into its own accumulator. With list set the search also keeps them,
// and stream returns them as the materialized state, with H_I laid out from
// their dense indexes.
func (c *Context) stream(snap *graph.Snapshot, parallelism int, masks []isomorph.Mask, list bool) (*accumulator, *materialized) {
	counter := newInstanceCounter(c.p)
	all, tuples := counter.accumulate(snap, parallelism, masks, list)
	c.numInstances = all.count
	c.numOccurrences = counter.occurrences(all.count)
	if !list {
		return all, nil
	}
	h := instanceHypergraph(snap, c.p.Size(), tuples)
	return all, &materialized{sym: counter.sym, ranks: tuples, h: h}
}

// instanceHypergraph lays H_I out from the instances' dense indexes in snap,
// k to an instance (isomorph.ListSnapshot): a mark per index of snap,
// numbered in index order — which is VertexID order — ranks the vertices the
// instances use, and each index is overwritten with its rank, so the tuples
// stay aligned with the pattern's nodes. Edge i is instance i's k ranks;
// hypergraph.NewUniform sorts them in place, so it is handed a copy, and
// keeps it as the edges of H_I's dense view, the only form H_I takes: the
// VertexIDs of its used vertices are looked up once each, here, and an
// edge's are read off them only if something asks for them.
func instanceHypergraph(snap *graph.Snapshot, k int, indexes []int32) *hypergraph.Hypergraph {
	rank := make([]int32, snap.NumVertices())
	for _, x := range indexes {
		rank[x] = 1
	}
	var vertices []graph.VertexID
	for x, used := range rank {
		if used != 0 {
			rank[x] = int32(len(vertices))
			vertices = append(vertices, snap.ID(int32(x)))
		}
	}
	for i, x := range indexes {
		indexes[i] = rank[x]
	}
	return hypergraph.NewUniform(vertices, k, slices.Clone(indexes))
}

// MustNewContext is NewContext but panics on error; intended for tests.
func MustNewContext(g *graph.Graph, p *pattern.Pattern, opts Options) *Context {
	ctx, err := NewContext(g, p, opts)
	if err != nil {
		panic(err)
	}
	return ctx
}

// Graph returns the data graph, or nil when the context was pinned to an
// explicit snapshot (Options.Snapshot) that has no mutable graph behind it.
func (c *Context) Graph() *graph.Graph { return c.g }

// Pattern returns the query pattern.
func (c *Context) Pattern() *pattern.Pattern { return c.p }

// Materialized reports whether the context holds the instance list and the
// instance hypergraph. It is false for contexts built with Options.Streaming.
func (c *Context) Materialized() bool { return c.mat != nil }

// Symmetry returns Aut(P), the pattern's symmetry the context's search was
// broken by; its position permutations (isomorph.Symmetry.Perm) carry an
// instance's representative to each of its occurrences. It is nil for a
// streaming context.
func (c *Context) Symmetry() *isomorph.Symmetry {
	if c.mat == nil {
		return nil
	}
	return c.mat.sym
}

// Instances returns one occurrence per instance (Definition 2.1.9), the
// instance's smallest automorphic copy, in canonical order — the order of
// those copies in Occurrences(). Edge i of OccurrenceHypergraph() is
// Instances()[i]. The list is expanded from InstanceRanks() on the first
// call and kept; no measure reads it, only Occurrences() does. It is nil for
// a streaming context.
func (c *Context) Instances() []*isomorph.Occurrence {
	m := c.mat
	if m == nil {
		return nil
	}
	m.instancesOnce.Do(func() {
		vertices := m.h.Vertices()
		m.instances = isomorph.TupleOccurrences(c.p, m.ranks, func(r int32) graph.VertexID { return vertices[r] })
	})
	return m.instances
}

// InstanceRanks returns the instances as tuples of H_I's vertex ranks, k =
// Pattern().Size() to an instance: ranks[i*k:(i+1)*k] are the images of
// Instances()[i], aligned with Pattern().Nodes(), each its vertex's position
// in OccurrenceHypergraph().Vertices() — so ranks order as VertexIDs do. It
// is what Instances() expands and what MI and MNIk count set images over;
// the slice is shared and must not be modified. It is nil for a streaming
// context.
func (c *Context) InstanceRanks() []int32 {
	if c.mat == nil {
		return nil
	}
	return c.mat.ranks
}

// Occurrences returns all occurrences in canonical order — every instance's
// copies under every automorphism, isomorph.EnumerateSnapshot's full list — or
// nil for a streaming context. The list is expanded from Instances() on the
// first call and kept; only the measures that compare individual occurrences
// (the harmful- and structural-overlap MIS, CountOverlaps) need it.
func (c *Context) Occurrences() []*isomorph.Occurrence {
	m := c.mat
	if m == nil {
		return nil
	}
	m.occurrencesOnce.Do(func() { m.occurrences = m.sym.Expand(c.Instances()) })
	return m.occurrences
}

// NumOccurrences returns the occurrence count (not a valid support measure on
// its own; see Chapter 2). It is available in both modes.
func (c *Context) NumOccurrences() int { return c.numOccurrences }

// NumInstances returns the instance count (not anti-monotonic either; used as
// the intuitive reference value the MI measure approximates). It is available
// in both modes.
func (c *Context) NumInstances() int { return c.numInstances }

// MNIDomainSizes returns, aligned with Pattern().Nodes(), the number of
// distinct data vertices each pattern node is mapped to across all
// occurrences. It is available in both modes and is all measures.MNI reads.
func (c *Context) MNIDomainSizes() []int { return c.domainSizes }

// OccurrenceHypergraph returns the instance hypergraph H_I (Definition
// 3.1.4): one edge per instance over its vertex set, in Instances() order, so
// the edge with EdgeID(i) is the vertex set of Instances()[i] and NumEdges
// equals NumInstances. Distinct instances may share a vertex set (the three
// paths of three on one triangle). As vertex sets H_I's edges are those of the
// occurrence hypergraph H_O, each repeated |Aut(P)| times fewer, so every
// cover, packing and LP optimum has the same value on either. It is nil for a
// streaming context.
func (c *Context) OccurrenceHypergraph() *hypergraph.Hypergraph {
	if c.mat == nil {
		return nil
	}
	return c.mat.h
}

// TransitiveNodeSubsets returns (and caches) the transitive node subsets of
// the pattern (Pattern.TransitiveNodeSubsets), the sets MI minimises over.
// It is an error for a pattern of more than 64 nodes.
func (c *Context) TransitiveNodeSubsets() ([][]pattern.NodeID, error) {
	c.transitiveOnce.Do(func() {
		c.transitive, c.transitiveErr = c.p.TransitiveNodeSubsets()
		// Every subset of a transitive node subset is one, so the pairs are
		// the subsets of two nodes.
		nodes := c.p.Nodes()
		for _, s := range c.transitive {
			if len(s) == 2 {
				v, _ := slices.BinarySearch(nodes, s[0])
				w, _ := slices.BinarySearch(nodes, s[1])
				c.pairs = append(c.pairs, [2]int{v, w})
			}
		}
	})
	return c.transitive, c.transitiveErr
}

// Kernel returns (and caches) the kernel of the instance hypergraph
// (hypergraph.Kernel) and the EdgeID in OccurrenceHypergraph() of each of its
// edges: a hypergraph of the same minimum cover, maximum packing and LP
// optimum, usually far smaller, which the LP relaxation and the exact cover
// and packing measures read. It is built at most once, on first use, so a
// context evaluated by MNI or MI alone never builds it. It must not be
// called on a streaming context.
func (c *Context) Kernel() (*hypergraph.Hypergraph, []hypergraph.EdgeID) {
	m := c.mat
	m.kernelOnce.Do(func() { m.kernel, m.origin = m.h.Kernel() })
	return m.kernel, m.origin
}

// Relaxation returns (and caches) the optimum of the packing LP of the
// instance hypergraph: ν_MIES and, by duality, ν_MVC (Theorem 4.6), with an
// optimal fractional packing and cover. It solves the LP of the kernel, whose
// optimum is H_I's, so Packing is indexed by the kernel's edges — Kernel()'s
// origin names each one's EdgeID in H_I — and Cover is aligned with the
// kernel's Vertices(). Every measure that needs an LP bound reads this one
// result, so a context pays for at most one solve. It must not be called on
// a streaming context, which has no hypergraph to relax.
func (c *Context) Relaxation() lp.RelaxationResult {
	m := c.mat
	m.relaxationOnce.Do(func() {
		k, _ := c.Kernel()
		m.relaxation = lp.Solve(k)
	})
	return m.relaxation
}

// String returns a compact summary of the context.
func (c *Context) String() string {
	if c.mat == nil {
		return fmt.Sprintf("Context(pattern k=%d, %d occurrences, %d instances, streaming)",
			c.p.Size(), c.numOccurrences, c.numInstances)
	}
	return fmt.Sprintf("Context(pattern k=%d, %d occurrences, %d instances, H_I=%s)",
		c.p.Size(), c.numOccurrences, c.numInstances, c.mat.h)
}
