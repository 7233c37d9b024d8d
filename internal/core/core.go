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
// In the default (materialized) mode the list comes from
// isomorph.EnumerateSnapshot's full search, identical for every parallelism
// and shard setting, and is scanned once into a table with a row per node;
// its instance count is the list's length over |Aut(P)| (instancesByOrbit,
// which checks the division is exact), except that a MaxOccurrences prefix,
// not being closed under automorphisms, is grouped by isomorph.Instances.
// DeltaContext keeps the streamed aggregates alive across graph mutations, in
// a VertexID-keyed refcount state, one row per node orbit: a complete pass's
// table is folded into it once, and after that every update adds and
// subtracts the instances through its dirty vertices, one representative at a
// time. The mutation ball around those vertices is kept as a size only — it
// decides between the delta passes and a rebuild and feeds one histogram.
package core

import (
	"fmt"
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

	// Two pieces of state are filled lazily, each behind its own guard so
	// concurrent measure computations stay safe. transitive caches the
	// transitive node subsets per policy, computed on first use from the
	// pattern only (they do not depend on the data graph).
	transitiveMu sync.Mutex
	transitive   map[isomorph.SubgraphPolicy][][]pattern.NodeID
	// relaxation is the packing LP optimum of occurrenceH, solved on first
	// use and at most once.
	relaxationOnce sync.Once
	relaxation     lp.RelaxationResult
}

// Options configures context construction.
type Options struct {
	// MaxOccurrences caps occurrence enumeration; zero means unlimited. A
	// positive cap keeps the first MaxOccurrences occurrences of the
	// sequential search order, whatever Parallelism says.
	MaxOccurrences int
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
	if opts.Streaming && opts.MaxOccurrences == 0 {
		// Nothing is kept: the search finds one representative per instance
		// and every worker folds the ones it is lent into its own
		// accumulator, each standing for |Aut(P)| occurrences.
		c := newInstanceCounter(p)
		all := c.accumulate(snap, opts.Parallelism)
		ctx.numInstances = all.count
		ctx.numOccurrences = c.occurrences(all.count)
		ctx.domainSizes = all.table.sizes()
		return ctx, nil
	}
	// The list is wanted — by a materialized context for good, by a capped
	// streaming one just long enough to group it — so the search is the full
	// one, and one scan folds its list into a table with a row per node.
	occs := isomorph.EnumerateSnapshot(snap, p, isomorph.Options{MaxOccurrences: opts.MaxOccurrences, Parallelism: opts.Parallelism})
	all := scan(snap, p, occs)
	ctx.numOccurrences = all.count
	ctx.domainSizes = all.table.sizes()
	if opts.MaxOccurrences == 0 {
		ctx.numInstances = instancesByOrbit(all.count, len(isomorph.Automorphisms(p.Graph())))
	} else {
		// A prefix no longer than the caller's own cap is not closed under
		// automorphisms, so the orbit count does not apply to it.
		ctx.numInstances = len(isomorph.Instances(p, occs))
	}
	if opts.Streaming {
		return ctx, nil
	}

	ctx.occurrences = occs
	ctx.occurrenceH = hypergraph.New()
	for _, o := range occs {
		ctx.occurrenceH.MustAddEdge(o.VertexSet())
	}
	return ctx, nil
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

// Streaming reports whether the context was built in streaming mode.
func (c *Context) Streaming() bool { return c.streaming }

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
// the pattern under the given subgraph policy.
func (c *Context) TransitiveNodeSubsets(policy isomorph.SubgraphPolicy) [][]pattern.NodeID {
	c.transitiveMu.Lock()
	defer c.transitiveMu.Unlock()
	if cached, ok := c.transitive[policy]; ok {
		return cached
	}
	if c.transitive == nil {
		c.transitive = make(map[isomorph.SubgraphPolicy][][]pattern.NodeID)
	}
	subsets := isomorph.TransitiveNodeSubsets(c.p, policy)
	c.transitive[policy] = subsets
	return subsets
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
