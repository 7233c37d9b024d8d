// Package support is the public facade of the library: a reimplementation of
// the hypergraph-based support measure framework of Meng and Tu, "Flexible
// and Feasible Support Measures for Mining Frequent Patterns in Large Labeled
// Graphs" (SIGMOD 2017).
//
// The facade re-exports the building blocks a downstream user needs:
//
//   - labeled graphs and patterns (Graph, Pattern, NewGraphBuilder, ...)
//   - graph generators and .lg file I/O
//   - the support measures (MNI, MI, MVC, MIS/MIES, LP relaxations, ...)
//     evaluated through Evaluate or individually through NewMeasure
//   - the Engine (engine.go): the one way in for everything that takes
//     options — evaluation, frequent-subgraph mining (Request.Mine), plan
//     explanation, warm mining sessions, store-backed and durable sources
//
// Evaluate and VerifyBoundingChain are the option-free one-call forms of an
// Engine evaluation. The heavy lifting lives in the internal packages
// (internal/graph, internal/measures, internal/miner, ...); this package
// keeps a small, stable, documented surface. See the examples/ directory for
// runnable programs built exclusively on this facade.
package support

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/measures"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/store"
)

// Re-exported core types. The aliases expose the full method sets of the
// underlying implementations while keeping a single import path for users.
type (
	// Graph is a vertex-labeled undirected graph (the data graph).
	Graph = graph.Graph
	// GraphBuilder incrementally constructs a Graph.
	GraphBuilder = graph.Builder
	// VertexID identifies a vertex of a Graph or a node of a Pattern.
	VertexID = graph.VertexID
	// Label is a vertex label.
	Label = graph.Label
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Pattern is a connected labeled query graph.
	Pattern = pattern.Pattern
	// Occurrence is one isomorphism from a pattern into the data graph.
	Occurrence = isomorph.Occurrence
	// Context bundles a (graph, pattern) pair with its occurrence aggregates
	// and, when materialized, its occurrence list and occurrence hypergraph;
	// every Evaluation carries the one its measures were computed on.
	Context = core.Context
	// Measure computes a support value on a Context.
	Measure = measures.Measure
	// Result is one computed support value.
	Result = measures.Result
	// Evaluation maps measure names to Results for one Context.
	Evaluation = measures.Evaluation
	// MinerResult is the outcome of a mining run.
	MinerResult = miner.Result
	// FrequentPattern is one mined frequent pattern with its support.
	FrequentPattern = miner.FrequentPattern
	// DeltaContext keeps streamed support aggregates (occurrence/instance
	// counts, MNI domain tables) alive across graph mutations; build one with
	// NewDeltaContext and call Refresh after mutating the graph.
	DeltaContext = core.DeltaContext
	// DeltaStats counts the maintenance work a DeltaContext has done.
	DeltaStats = core.DeltaStats
	// Mutation is one structural graph mutation as recorded by a graph's
	// mutation feed (see Graph.Subscribe).
	Mutation = graph.Mutation
	// MutationFeed is a pull-based subscription to a graph's mutations.
	MutationFeed = graph.MutationFeed
	// Snapshot is an immutable sharded CSR view of a Graph, the structure
	// all enumeration runs on; obtain one with Graph.Freeze/FreezeSharded or
	// from an out-of-core store via OpenStore.
	Snapshot = graph.Snapshot
	// FreezeOptions controls the shard partition of Graph.FreezeSharded.
	FreezeOptions = graph.FreezeOptions
	// Store is an open out-of-core shard store: mmap-backed segments served
	// as a Snapshot under a residency-managed paging budget. See OpenStore.
	Store = store.Store
	// StoreOptions configures OpenStore (residency budget, checksum
	// verification).
	StoreOptions = store.Options
	// StoreManifest describes a store directory (totals, shard geometry,
	// per-segment checksums).
	StoreManifest = store.Manifest
	// ResidencyStats is the paging accounting of an open Store.
	ResidencyStats = store.ResidencyStats
	// Figure is a built-in worked example from the paper.
	Figure = dataset.Figure
	// PlanExplanation reports the search order the enumeration engine would
	// use for a (snapshot, pattern) pair, with the per-depth statistics that
	// led to it; obtain one with ExplainPlan.
	PlanExplanation = isomorph.PlanExplanation
	// PlanStep is one depth of a PlanExplanation.
	PlanStep = isomorph.PlanStep
)

// Canonical measure names accepted by NewMeasure and reported in Results.
const (
	MNI           = measures.NameMNI
	MNIK          = measures.NameMNIK
	MI            = measures.NameMI
	MVC           = measures.NameMVC
	MVCApprox     = measures.NameMVCApprox
	MIS           = measures.NameMIS
	MIES          = measures.NameMIES
	MIESGreedy    = measures.NameMIESGreedy
	NuMVC         = measures.NameNuMVC
	NuMIES        = measures.NameNuMIES
	MCP           = measures.NameMCP
	MISHarmful    = measures.NameMISHarmful
	MISStructural = measures.NameMISStructural
	Occurrences   = measures.NameOccurrences
	Instances     = measures.NameInstances
)

// NewGraph returns an empty labeled graph with the given name.
func NewGraph(name string) *Graph { return graph.New(name) }

// NewGraphBuilder returns a builder for a new graph with the given name.
func NewGraphBuilder(name string) *GraphBuilder { return graph.NewBuilder(name) }

// NewPattern wraps a connected labeled graph as a query pattern.
func NewPattern(g *Graph) (*Pattern, error) { return pattern.New(g) }

// SingleEdgePattern returns the one-edge pattern with the two given labels.
func SingleEdgePattern(a, b Label) *Pattern { return pattern.SingleEdge(a, b) }

// ReadLG parses a graph in the GraMi-style .lg text format.
func ReadLG(r io.Reader, name string) (*Graph, error) { return dataset.ReadLG(r, name) }

// WriteLG writes a graph in the .lg text format.
func WriteLG(w io.Writer, g *Graph) error { return dataset.WriteLG(w, g) }

// LoadLGFile reads a .lg graph from a file.
func LoadLGFile(path string) (*Graph, error) { return dataset.LoadLGFile(path) }

// SaveLGFile writes a graph to a file in .lg format.
func SaveLGFile(path string, g *Graph) error { return dataset.SaveLGFile(path, g) }

// PaperFigures returns the worked examples of the paper (Figures 1-10) as
// ready-made (graph, pattern) fixtures with their expected support values.
func PaperFigures() []Figure { return dataset.AllFigures() }

// ErdosRenyi generates a G(n, p) random graph with labels drawn uniformly
// from 1..labelCount.
func ErdosRenyi(n int, p float64, labelCount int, seed uint64) *Graph {
	return gen.ErdosRenyi(n, p, gen.UniformLabels{K: labelCount}, seed)
}

// BarabasiAlbert generates an n-vertex preferential-attachment graph with m
// edges per new vertex and labels drawn uniformly from 1..labelCount.
func BarabasiAlbert(n, m, labelCount int, seed uint64) *Graph {
	return gen.BarabasiAlbert(n, m, gen.UniformLabels{K: labelCount}, seed)
}

// RandomGeometric generates a random geometric graph in the unit square.
func RandomGeometric(n int, radius float64, labelCount int, seed uint64) *Graph {
	return gen.RandomGeometric(n, radius, gen.UniformLabels{K: labelCount}, seed)
}

// ExplainPlan compiles — without running it — the search plan the enumeration
// engine would use for pattern p over the given snapshot (freeze a Graph or
// open a Store to obtain one), returning the chosen search order with the
// per-depth candidate estimates and inner-loop kernels, and with the
// pattern's symmetry: its automorphism count, its node orbits and the depths
// a streamed evaluation bounds from below so that it finds every instance
// once (a materialized evaluation walks the same order without the bounds).
// Render it with its String method. The plan depends on the snapshot and the
// pattern alone. It powers gminer -explain and the gserved slow-query log.
func ExplainPlan(snap *Snapshot, p *Pattern) *PlanExplanation {
	return isomorph.Explain(snap, p, isomorph.Options{Symmetry: isomorph.NewSymmetry(p)})
}

// MeasureNames returns every measure name known to NewMeasure, sorted.
func MeasureNames() []string { return measures.NewRegistry().Names() }

// NewMeasure returns the measure registered under the given canonical name.
func NewMeasure(name string) (Measure, error) { return measures.NewRegistry().New(name) }

// Evaluate computes the given measures (all default measures when none are
// named) for pattern p in graph g and returns the evaluation. It is the
// one-call entry point for "what is the support of this pattern?": a
// throwaway Engine with default options answers one Request. Callers that
// need options, a store-backed source or repeated requests build the Engine
// themselves.
func Evaluate(g *Graph, p *Pattern, names ...string) (*Evaluation, error) {
	e, err := NewEngine(g, EngineOptions{})
	if err != nil {
		return nil, err
	}
	resp, err := e.Do(&Request{Pattern: p, Measures: names})
	if err != nil {
		return nil, err
	}
	return resp.Evaluation, nil
}

// NewDeltaContext builds the streamed aggregates of p in g and keeps them
// alive across graph mutations: call Refresh on the returned context after
// AddVertex/AddEdge batches and it applies exact occurrence deltas (restricted
// to the mutated region) instead of re-enumerating the graph. Evaluate
// streaming-capable measures (MNI, the raw counts) on DeltaContext.Context().
// It is the single-pattern form of Engine.OpenSession, for callers that
// mutate the graph themselves. Of opts, Parallelism and Shards apply;
// Streaming is implied and MaxOccurrences must be zero.
func NewDeltaContext(g *Graph, p *Pattern, opts EngineOptions) (*DeltaContext, error) {
	return core.NewDeltaContext(g, p, opts.contextOptions())
}

// VerifyBoundingChain evaluates every measure of the paper's bounding chain
// for p in g and returns an error if any inequality of
//
//	MIS = MIES <= nuMIES = nuMVC <= MVC <= MI <= MNI
//
// is violated. It is primarily a correctness oracle for tests and examples.
func VerifyBoundingChain(g *Graph, p *Pattern) error {
	ev, err := Evaluate(g, p)
	if err != nil {
		return err
	}
	return ev.VerifyBoundingChain()
}

// WriteStore persists a frozen snapshot as an out-of-core shard store in
// dir: one flat, checksummed binary segment per CSR shard plus a manifest.
// Open it again — in this process or any other — with OpenStore.
func WriteStore(snap *Snapshot, dir string) error { return store.Write(snap, dir) }

// OpenStore opens the shard store at dir and serves it as an mmap-backed
// Snapshot (Store.Snapshot): shard arrays alias the mapped segment bytes
// with no deserialization copy, and a residency manager pages shards in on
// first drain and evicts cold ones under opts' byte budget, so stores
// larger than RAM enumerate and mine with results identical to the
// in-memory snapshot they were written from. Close the store when its
// snapshot is no longer in use.
func OpenStore(dir string, opts StoreOptions) (*Store, error) { return store.Open(dir, opts) }

// OpenStoreWithBudget is OpenStore with the residency budget given in
// ParseResidencyBudget syntax (bytes, "64MiB", "25%"; empty = unlimited) —
// the one-call form behind the CLI -store/-residency flag pairs.
func OpenStoreWithBudget(dir, budget string) (*Store, error) {
	return store.OpenWithBudget(dir, budget)
}

// ParseResidencyBudget parses a residency budget string: plain bytes
// ("8388608"), binary sizes ("64MiB"), or a percentage of the store's
// mapped bytes ("25%"). It is the syntax of the CLI -residency flags and of
// the store.BudgetEnv environment override.
func ParseResidencyBudget(s string) (bytes int64, frac float64, err error) {
	return store.ParseBudget(s)
}

// FormatEvaluation renders an evaluation as a small human-readable report,
// one measure per line in bounding-chain order where applicable.
func FormatEvaluation(ev *Evaluation) string {
	order := []string{
		Occurrences, Instances, MIS, MIES, NuMIES, NuMVC, MVC, MVCApprox, MI, MNI, MCP,
	}
	out := ""
	seen := make(map[string]bool)
	for _, name := range order {
		if r, ok := ev.Results[name]; ok {
			out += fmt.Sprintf("%-12s %s\n", name, r.String())
			seen[name] = true
		}
	}
	for _, name := range ev.Names() {
		if !seen[name] {
			out += fmt.Sprintf("%-12s %s\n", name, ev.Results[name].String())
		}
	}
	return out
}
