// Package core assembles the paper's hypergraph framework: given a data
// graph and a pattern it enumerates occurrences, builds the occurrence
// hypergraph (Definition 3.1.3) and classifies pairwise overlaps between
// occurrences (simple, harmful and structural overlap, Section 4.5). All
// support measures in the measures package are computed from a Context
// produced here. The instance hypergraph (Definition 3.1.4) is not built: as
// vertex sets its edges are the occurrence hypergraph's, each only repeated
// fewer times, so every cover, packing and LP optimum has the same value on
// either.
//
// Context construction runs on the streaming parallel enumeration engine of
// package isomorph. In streaming mode the pattern's symmetry is derived once
// (isomorph.NewSymmetry) and handed to the search, which then finds one
// representative occurrence per instance instead of all |Aut(P)| of them;
// every worker folds the representatives it is lent into one accumulator —
// their count and the MNI domain table, one row of counters per node orbit
// keyed by the snapshot's dense vertex indexes (table.go) — and the
// accumulators are merged once enumeration finishes. The occurrence list and
// the hypergraph are never materialized and only the aggregates survive: the
// instance count is the number of representatives, the occurrence count is
// |Aut(P)| times that, and a node's MNI domain size is the number of non-zero
// counters of its orbit's row, which is all that MNI and the raw counts need.
// The miner's streamed context (NewDomainContext) and the incremental miner's
// first pass of a DeltaContext (NewDeltaContextAt) also hand those rows back,
// as bitsets over the snapshot's dense indexes, and their search may be
// confined to the bitsets of the level below. In the default (materialized)
// mode the list comes from isomorph.EnumerateSnapshot's full search,
// identical for every parallelism and shard setting, and is scanned once into
// a table with the same orbit rows; its instance count is the list's length
// over |Aut(P)| (instancesByOrbit, which checks the division is exact).
// DeltaContext keeps the streamed aggregates alive across graph mutations, in
// a VertexID-keyed refcount state, one row per node orbit: a complete pass's
// table is folded into it once, and after that every update adds and
// subtracts the instances that use its mutated edges and vertices, one
// representative at a time. The mutation ball around the batch's dirty
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
// occurrences and — unless built with Options.Streaming — the occurrence list
// and the occurrence hypergraph, whose edge i is occurrence i. A Context is
// immutable after construction and safe for concurrent readers, so one
// Context can feed many measure computations.
type Context struct {
	g *graph.Graph
	p *pattern.Pattern

	streaming bool

	// Materialized state; both nil when the context was built with Streaming.
	occurrences []*isomorph.Occurrence
	occurrenceH *hypergraph.Hypergraph

	// Streamed aggregates, valid in both modes.
	numOccurrences int
	numInstances   int
	// domainSizes[i] is the number of distinct data vertices the occurrences
	// map pattern node Pattern().Nodes()[i] to (the MNI domain size).
	domainSizes []int

	// Two pieces of state are filled lazily, each at most once, so
	// concurrent measure computations stay safe. transitive holds the
	// pattern's transitive node subsets and pairs their two-node members as
	// position pairs, computed on first use from the pattern alone (they do
	// not depend on the data graph).
	transitiveOnce sync.Once
	transitive     [][]pattern.NodeID
	pairs          [][2]int
	transitiveErr  error
	// relaxation is the packing LP optimum of occurrenceH, solved on first
	// use.
	relaxationOnce sync.Once
	relaxation     lp.RelaxationResult
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
	// Streaming skips materializing the occurrence list and the occurrence
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

// NewContext enumerates the occurrences of p in g and builds the configured
// amount of derived state (see Options).
func NewContext(g *graph.Graph, p *pattern.Pattern, opts Options) (*Context, error) {
	if (g == nil && opts.Snapshot == nil) || p == nil {
		return nil, fmt.Errorf("core: nil graph or pattern")
	}
	ctx := &Context{g: g, p: p, streaming: opts.Streaming}

	snap := opts.Snapshot
	if snap == nil {
		snap = g.FreezeSharded(graph.FreezeOptions{Shards: opts.Shards})
	}
	if opts.Streaming {
		ctx.domainSizes = ctx.stream(snap, opts.Parallelism, nil).table.sizes()
		return ctx, nil
	}
	// The list is wanted, so the search is the full one, and one scan folds
	// the list into the orbit rows a streaming pass fills.
	occs := isomorph.EnumerateSnapshot(snap, p, isomorph.Options{Parallelism: opts.Parallelism})
	counter := newInstanceCounter(p)
	all := counter.scan(snap, occs)
	ctx.numOccurrences = all.count
	ctx.numInstances = instancesByOrbit(all.count, counter.sym.Order())
	ctx.domainSizes = all.table.sizes()
	ctx.occurrences = occs
	ctx.occurrenceH = hypergraph.New()
	for _, o := range occs {
		ctx.occurrenceH.MustAddEdge(o.VertexSet())
	}
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
	ctx := &Context{p: p, streaming: true}
	domains := ctx.stream(snap, parallelism, masks).table.domains(snap.NumVertices())
	ctx.domainSizes = make([]int, len(domains))
	for i, d := range domains {
		ctx.domainSizes[i] = d.Count()
	}
	return ctx, domains
}

// stream fills a streaming context's counts from one search over snap,
// confined to masks, and returns the pass's merged accumulator, whose table
// the caller reads the domains off. Nothing is kept: the search finds one
// representative per instance and every worker folds the ones it is lent
// into its own accumulator, each standing for |Aut(P)| occurrences.
func (c *Context) stream(snap *graph.Snapshot, parallelism int, masks []isomorph.Mask) *accumulator {
	counter := newInstanceCounter(c.p)
	all := counter.accumulate(snap, parallelism, masks)
	c.numInstances = all.count
	c.numOccurrences = counter.occurrences(all.count)
	return all
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

// Materialized reports whether the context holds the occurrence list and the
// occurrence hypergraph. It is false for contexts built with
// Options.Streaming.
func (c *Context) Materialized() bool { return !c.streaming }

// Occurrences returns all enumerated occurrences in deterministic order, or
// nil for a streaming context.
func (c *Context) Occurrences() []*isomorph.Occurrence { return c.occurrences }

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

// OccurrenceHypergraph returns the occurrence hypergraph H_O: one edge per
// occurrence over its vertex images, in occurrence order, so the edge with
// EdgeID(i) is the vertex set of Occurrences()[i] and NumEdges equals
// NumOccurrences. It is nil for a streaming context.
func (c *Context) OccurrenceHypergraph() *hypergraph.Hypergraph { return c.occurrenceH }

// TransitiveNodeSubsets returns (and caches) the transitive node subsets of
// the pattern (isomorph.TransitiveNodeSubsets), the sets MI minimises over.
// It is an error for a pattern of more than 64 nodes.
func (c *Context) TransitiveNodeSubsets() ([][]pattern.NodeID, error) {
	c.transitiveOnce.Do(func() {
		c.transitive, c.transitiveErr = isomorph.TransitiveNodeSubsets(c.p)
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

// Relaxation returns (and caches) the optimum of the packing LP of the
// occurrence hypergraph: ν_MIES and, by duality, ν_MVC (Theorem 4.6), with an
// optimal fractional packing and cover. Every measure that needs an LP bound
// reads this one result, so a context pays for at most one solve. It must not
// be called on a streaming context, which has no hypergraph to relax.
func (c *Context) Relaxation() lp.RelaxationResult {
	c.relaxationOnce.Do(func() { c.relaxation = lp.Solve(c.occurrenceH) })
	return c.relaxation
}

// String returns a compact summary of the context.
func (c *Context) String() string {
	if c.streaming {
		return fmt.Sprintf("Context(pattern k=%d, %d occurrences, %d instances, streaming)",
			c.p.Size(), c.numOccurrences, c.numInstances)
	}
	return fmt.Sprintf("Context(pattern k=%d, %d occurrences, %d instances, H_O=%s)",
		c.p.Size(), c.numOccurrences, c.numInstances, c.occurrenceH)
}
