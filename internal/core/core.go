// Package core assembles the paper's hypergraph framework: given a data
// graph and a pattern it enumerates occurrences and instances, builds the
// occurrence hypergraph (Definition 3.1.3) and the instance hypergraph
// (Definition 3.1.4), and classifies pairwise overlaps between occurrences
// (simple, harmful and structural overlap, Section 4.5). All support measures
// in the measures package are computed from a Context produced here.
//
// Context construction runs on the streaming parallel enumeration engine of
// package isomorph: occurrences are streamed into per-worker accumulators
// that are merged once enumeration finishes. In the default (materialized)
// mode the merged result is byte-for-byte identical to a sequential build. In
// streaming mode the occurrence list and both hypergraphs are never
// materialized; only the aggregates that can be maintained incrementally
// survive (occurrence count, distinct-instance count, and the per-node MNI
// domain tables), which is all that MNI and the raw counts need.
package core

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// Context bundles a pattern, a data graph, the enumerated occurrences and
// instances, and the derived hypergraphs. A Context is immutable after
// construction and safe for concurrent readers, so one Context can feed many
// measure computations.
type Context struct {
	g *graph.Graph
	p *pattern.Pattern

	streaming bool

	// Materialized state; all nil when the context was built with Streaming.
	occurrences []*isomorph.Occurrence
	instances   []*isomorph.Instance
	occurrenceH *hypergraph.Hypergraph
	instanceH   *hypergraph.Hypergraph

	// Streamed aggregates, valid in both modes.
	numOccurrences int
	numInstances   int
	// domainSizes[i] is the number of distinct data vertices the occurrences
	// map pattern node Pattern().Nodes()[i] to (the MNI domain size). Only
	// populated in streaming mode; nil on materialized contexts, which scan
	// their occurrence list instead (see measures.MNI).
	domainSizes []int

	// transitive caches the transitive node subsets per policy, computed on
	// first use from the pattern only (they do not depend on the data graph).
	// It is the one piece of lazily filled state, so transitiveMu guards it
	// and concurrent measure computations stay safe.
	transitiveMu sync.Mutex
	transitive   map[isomorph.SubgraphPolicy][][]pattern.NodeID
}

// Options configures context construction.
type Options struct {
	// MaxOccurrences caps occurrence enumeration; zero means unlimited. A
	// positive cap forces sequential enumeration so the kept prefix is
	// deterministic.
	MaxOccurrences int
	// Parallelism is the worker count of the enumeration engine: 0 picks
	// GOMAXPROCS (with a sequential fallback on tiny inputs), 1 forces the
	// sequential path, higher values are used as given. The resulting
	// Context is identical for every setting.
	Parallelism int
	// Shards is the CSR shard count of the frozen snapshot enumeration runs
	// on: 0 keeps the graph's automatic sharding, positive values split the
	// vertex range into at most that many contiguous shards (see
	// isomorph.Options.Shards). The resulting Context is identical for every
	// setting.
	Shards int
	// Streaming skips materializing the occurrence list, the instance list
	// and both hypergraphs; only the incremental aggregates (occurrence and
	// instance counts, MNI domain tables) are kept. Measures that need the
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

// workerAcc is the per-worker streaming accumulator occurrences are folded
// into; each enumeration worker owns exactly one, so no locking is needed on
// the hot path.
type workerAcc struct {
	count int
	occs  []*isomorph.Occurrence        // materialized mode only
	doms  []map[graph.VertexID]struct{} // streaming mode: per-node MNI domains
	insts map[string]struct{}           // streaming mode: distinct instance keys
}

// instanceKeyer computes a canonical key of the instance (image subgraph) an
// occurrence projects onto, reusing worker-local scratch buffers so the
// streaming hot path allocates only the final map-key string. Two occurrences
// share a key iff they project onto the same instance, matching the grouping
// of isomorph.Instances.
type instanceKeyer struct {
	// edgeSlots holds, per pattern edge, the positions of its endpoints in
	// the occurrence's node order.
	edgeSlots [][2]int
	vbuf      []graph.VertexID
	ebuf      []graph.Edge
	buf       []byte
}

func newInstanceKeyer(p *pattern.Pattern, nodes []pattern.NodeID) *instanceKeyer {
	pos := make(map[pattern.NodeID]int, len(nodes))
	for i, n := range nodes {
		pos[n] = i
	}
	k := &instanceKeyer{}
	for _, e := range p.Edges() {
		k.edgeSlots = append(k.edgeSlots, [2]int{pos[e.U], pos[e.V]})
	}
	return k
}

// key fills and returns the keyer's byte buffer; the caller converts it to a
// string only when inserting into a map (lookups via m[string(buf)] are
// allocation-free).
func (k *instanceKeyer) key(o *isomorph.Occurrence) []byte {
	k.vbuf = k.vbuf[:0]
	for i := 0; i < o.Len(); i++ {
		v := o.ImageAt(i)
		// Insertion sort; patterns are small (k <= ~5 in practice).
		j := len(k.vbuf)
		k.vbuf = append(k.vbuf, v)
		for j > 0 && k.vbuf[j-1] > v {
			k.vbuf[j] = k.vbuf[j-1]
			j--
		}
		k.vbuf[j] = v
	}
	k.ebuf = k.ebuf[:0]
	for _, s := range k.edgeSlots {
		u, v := o.ImageAt(s[0]), o.ImageAt(s[1])
		if u > v {
			u, v = v, u
		}
		e := graph.Edge{U: u, V: v}
		j := len(k.ebuf)
		k.ebuf = append(k.ebuf, e)
		for j > 0 && (k.ebuf[j-1].U > e.U || (k.ebuf[j-1].U == e.U && k.ebuf[j-1].V > e.V)) {
			k.ebuf[j] = k.ebuf[j-1]
			j--
		}
		k.ebuf[j] = e
	}
	k.buf = k.buf[:0]
	for _, v := range k.vbuf {
		k.buf = strconv.AppendInt(k.buf, int64(v), 10)
		k.buf = append(k.buf, ',')
	}
	k.buf = append(k.buf, '|')
	for _, e := range k.ebuf {
		k.buf = strconv.AppendInt(k.buf, int64(e.U), 10)
		k.buf = append(k.buf, '-')
		k.buf = strconv.AppendInt(k.buf, int64(e.V), 10)
		k.buf = append(k.buf, ',')
	}
	return k.buf
}

// NewContext enumerates occurrences and instances of p in g and builds the
// configured amount of derived state (see Options).
func NewContext(g *graph.Graph, p *pattern.Pattern, opts Options) (*Context, error) {
	if (g == nil && opts.Snapshot == nil) || p == nil {
		return nil, fmt.Errorf("core: nil graph or pattern")
	}
	nodes := p.Nodes()
	ctx := &Context{g: g, p: p, streaming: opts.Streaming}

	snap := opts.Snapshot
	if snap == nil {
		snap = g.FreezeSharded(graph.FreezeOptions{Shards: opts.Shards})
	}
	enumPar := opts.Parallelism
	if opts.MaxOccurrences > 0 {
		// A parallel run would keep whichever occurrences win the race for
		// the shared budget; pin the sequential path so the kept prefix is
		// the deterministic one the Options doc promises.
		enumPar = 1
	}
	var accs []*workerAcc
	isomorph.EnumerateSnapshotWorkers(snap, p,
		isomorph.Options{
			MaxOccurrences: opts.MaxOccurrences,
			Parallelism:    enumPar,
		},
		func(int) func(*isomorph.Occurrence) bool {
			a := &workerAcc{}
			accs = append(accs, a)
			if !opts.Streaming {
				return func(o *isomorph.Occurrence) bool {
					a.occs = append(a.occs, o)
					return true
				}
			}
			a.doms = make([]map[graph.VertexID]struct{}, len(nodes))
			for i := range a.doms {
				a.doms[i] = make(map[graph.VertexID]struct{})
			}
			a.insts = make(map[string]struct{})
			keyer := newInstanceKeyer(p, nodes)
			return func(o *isomorph.Occurrence) bool {
				a.count++
				for i := range nodes {
					a.doms[i][o.ImageAt(i)] = struct{}{}
				}
				key := keyer.key(o)
				if _, ok := a.insts[string(key)]; !ok {
					a.insts[string(key)] = struct{}{}
				}
				return true
			}
		})

	if opts.Streaming {
		mergeStreamed(ctx, nodes, accs)
		return ctx, nil
	}

	buckets := make([][]*isomorph.Occurrence, len(accs))
	for i, a := range accs {
		buckets[i] = a.occs
	}
	occs := isomorph.MergeSortedOccurrences(buckets)
	insts := isomorph.Instances(p, occs)
	ctx.numOccurrences = len(occs)

	occH := hypergraph.New()
	for i, o := range occs {
		occH.MustAddEdge(fmt.Sprintf("f%d", i+1), o.VertexSet())
	}
	instH := hypergraph.New()
	for i, in := range insts {
		instH.MustAddEdge(fmt.Sprintf("S%d", i+1), in.Vertices())
	}

	ctx.occurrences = occs
	ctx.instances = insts
	ctx.occurrenceH = occH
	ctx.instanceH = instH
	ctx.numInstances = len(insts)
	return ctx, nil
}

// mergeStreamed folds the per-worker streaming accumulators into the context.
func mergeStreamed(ctx *Context, nodes []pattern.NodeID, accs []*workerAcc) {
	doms := make([]map[graph.VertexID]struct{}, len(nodes))
	for i := range doms {
		doms[i] = make(map[graph.VertexID]struct{})
	}
	instKeys := make(map[string]struct{})
	for _, a := range accs {
		ctx.numOccurrences += a.count
		for i := range nodes {
			for v := range a.doms[i] {
				doms[i][v] = struct{}{}
			}
		}
		for k := range a.insts {
			instKeys[k] = struct{}{}
		}
	}
	ctx.numInstances = len(instKeys)
	ctx.domainSizes = make([]int, len(nodes))
	for i := range nodes {
		ctx.domainSizes[i] = len(doms[i])
	}
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

// Materialized reports whether the context holds the full occurrence and
// instance lists and both hypergraphs. It is false for contexts built with
// Options.Streaming.
func (c *Context) Materialized() bool { return !c.streaming }

// Streaming reports whether the context was built in streaming mode.
func (c *Context) Streaming() bool { return c.streaming }

// Occurrences returns all enumerated occurrences in deterministic order, or
// nil for a streaming context.
func (c *Context) Occurrences() []*isomorph.Occurrence { return c.occurrences }

// Instances returns the distinct instances in deterministic order, or nil for
// a streaming context.
func (c *Context) Instances() []*isomorph.Instance { return c.instances }

// NumOccurrences returns the occurrence count (not a valid support measure on
// its own; see Chapter 2). It is available in both modes.
func (c *Context) NumOccurrences() int { return c.numOccurrences }

// NumInstances returns the instance count (not anti-monotonic either; used as
// the intuitive reference value the MI measure approximates). It is available
// in both modes.
func (c *Context) NumInstances() int { return c.numInstances }

// MNIDomainSizes returns, aligned with Pattern().Nodes(), the number of
// distinct data vertices each pattern node is mapped to across all
// occurrences. It is non-nil only on streaming contexts, where it is the
// incremental substitute for scanning the occurrence list.
func (c *Context) MNIDomainSizes() []int { return c.domainSizes }

// OccurrenceHypergraph returns the occurrence hypergraph H_O: one labeled
// edge f_i per occurrence over its vertex images. It is nil for a streaming
// context.
func (c *Context) OccurrenceHypergraph() *hypergraph.Hypergraph { return c.occurrenceH }

// InstanceHypergraph returns the instance hypergraph H_I: one labeled edge
// S_i per distinct instance over its vertex set. It is nil for a streaming
// context.
func (c *Context) InstanceHypergraph() *hypergraph.Hypergraph { return c.instanceH }

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

// String returns a compact summary of the context.
func (c *Context) String() string {
	if c.streaming {
		return fmt.Sprintf("Context(pattern k=%d, %d occurrences, %d instances, streaming)",
			c.p.Size(), c.numOccurrences, c.numInstances)
	}
	return fmt.Sprintf("Context(pattern k=%d, %d occurrences, %d instances, H_O=%s, H_I=%s)",
		c.p.Size(), len(c.occurrences), len(c.instances), c.occurrenceH, c.instanceH)
}
