// Package server is the serving layer of the library: a session-holding,
// admission-controlled façade that exposes one long-lived support.Engine —
// pattern matching, support evaluation, mutation, and warm mining sessions —
// to many concurrent remote clients. The transport is HTTP/JSON
// (cmd/gserved): Handler routes every path to one request method of Server,
// which takes and returns the wire types below and knows nothing of HTTP.
//
// Everything in this package reduces to support.Request/support.Response:
// wire types decode into the same Request an in-process caller builds, so
// a remote answer is byte-identical to the in-process one on the
// same epoch — the property the concurrency tests pin down.
package server

import (
	"fmt"
	"sort"
	"strings"

	support "repro"
)

// PatternWire selects a query pattern on the wire: either a single-edge
// pattern by its two labels or a full pattern in .lg text form. Exactly one
// field must be set.
type PatternWire struct {
	// Edge gives a single-edge pattern as its two vertex labels.
	Edge []int `json:"edge,omitempty"`
	// LG gives an arbitrary connected pattern in GraMi-style .lg text.
	LG string `json:"lg,omitempty"`
}

// Pattern decodes the wire form into a query pattern.
func (pw PatternWire) Pattern() (*support.Pattern, error) {
	switch {
	case len(pw.Edge) > 0 && pw.LG != "":
		return nil, fmt.Errorf("pattern: edge and lg are mutually exclusive")
	case len(pw.Edge) == 2:
		return support.SingleEdgePattern(support.Label(pw.Edge[0]), support.Label(pw.Edge[1])), nil
	case len(pw.Edge) != 0:
		return nil, fmt.Errorf("pattern: edge needs exactly two labels, got %d", len(pw.Edge))
	case pw.LG != "":
		g, err := support.ReadLG(strings.NewReader(pw.LG), "pattern")
		if err != nil {
			return nil, fmt.Errorf("pattern: %w", err)
		}
		return support.NewPattern(g)
	default:
		return nil, fmt.Errorf("pattern: one of edge or lg is required")
	}
}

// OptionsWire is the per-request override of the engine's EngineOptions, the
// remote face of support.Request.Options. Residency and shard geometry are
// engine-level (fixed when the server opened its source) and deliberately
// absent.
type OptionsWire struct {
	// Parallelism is the enumeration worker count (0 = server default,
	// clamped by the server's admission limits).
	Parallelism int `json:"parallelism,omitempty"`
	// Streaming selects streaming aggregation (MNI and raw counts only).
	Streaming bool `json:"streaming,omitempty"`
}

// EvaluateRequest asks for the support of one pattern on the current epoch.
type EvaluateRequest struct {
	// Pattern is the query pattern.
	Pattern PatternWire `json:"pattern"`
	// Measures names the measures to evaluate; empty means the default set.
	Measures []string `json:"measures,omitempty"`
	// Explain additionally returns the compiled search plan.
	Explain bool `json:"explain,omitempty"`
	// Options overrides the engine defaults for this request.
	Options *OptionsWire `json:"options,omitempty"`
}

// MeasureWire is one computed measure value.
type MeasureWire struct {
	// Value is the support value.
	Value float64 `json:"value"`
	// Exact reports whether the value is provably exact.
	Exact bool `json:"exact"`
}

// EvaluateResponse carries the measure results of one evaluation.
type EvaluateResponse struct {
	// Epoch is the snapshot epoch the request was answered on.
	Epoch uint64 `json:"epoch"`
	// Results maps measure names to their values.
	Results map[string]MeasureWire `json:"results"`
	// Plan is the rendered search-plan explanation when requested.
	Plan string `json:"plan,omitempty"`
}

// MineWire is the wire form of a mining configuration, shared by one-shot
// mining requests and session opens.
type MineWire struct {
	// MinSupport is the frequency threshold.
	MinSupport float64 `json:"min_support"`
	// MaxPatternSize bounds pattern node counts (0 = the miner default).
	MaxPatternSize int `json:"max_pattern_size,omitempty"`
	// MaxPatterns stops after this many frequent patterns (0 = unlimited).
	MaxPatterns int `json:"max_patterns,omitempty"`
	// Measure is the canonical measure name ("" = MNI).
	Measure string `json:"measure,omitempty"`
	// Workers is the candidate-level evaluation parallelism. An omitted or
	// zero value means the server's MaxParallelism, which is its default, and
	// a larger one is clamped down to it (MineSpec); only a server without a
	// cap passes zero on, which the engine runs sequentially.
	Workers int `json:"workers,omitempty"`
	// Options overrides the engine defaults for this request.
	Options *OptionsWire `json:"options,omitempty"`
}

// MineSpec decodes the wire form into the engine's mining spec for a server
// whose parallelism cap is maxParallelism: Workers goes through
// clampParallelism, so zero becomes the cap. /v1/mine and /v1/sessions both
// decode their configurations here.
func (mw MineWire) MineSpec(maxParallelism int) (*support.MineSpec, error) {
	spec := &support.MineSpec{
		MinSupport:     mw.MinSupport,
		MaxPatternSize: mw.MaxPatternSize,
		MaxPatterns:    mw.MaxPatterns,
		Workers:        clampParallelism(mw.Workers, maxParallelism),
	}
	if mw.Measure != "" {
		m, err := support.NewMeasure(mw.Measure)
		if err != nil {
			return nil, err
		}
		spec.Measure = m
	}
	return spec, nil
}

// PatternResultWire is one mined frequent pattern: its shape (node labels in
// canonical node order plus the edge list over node positions) and support.
type PatternResultWire struct {
	// Labels holds the pattern's node labels in canonical node order.
	Labels []int `json:"labels"`
	// Edges lists the pattern edges as node-position pairs.
	Edges [][2]int `json:"edges"`
	// Support is the value of the mining measure.
	Support float64 `json:"support"`
	// Exact reports whether the support is provably exact.
	Exact bool `json:"exact"`
	// Occurrences and Instances are the raw counts observed during
	// evaluation.
	Occurrences int `json:"occurrences"`
	// Instances is documented on Occurrences.
	Instances int `json:"instances"`
}

// MineResponse carries the result of a mining run or session refresh.
type MineResponse struct {
	// Epoch is the snapshot epoch the result corresponds to.
	Epoch uint64 `json:"epoch"`
	// Patterns lists the frequent patterns in deterministic order.
	Patterns []PatternResultWire `json:"patterns"`
	// Candidates, Pruned, Frequent and Duplicates summarize the search.
	Candidates int `json:"candidates"`
	// Pruned is documented on Candidates.
	Pruned int `json:"pruned"`
	// Frequent is documented on Candidates.
	Frequent int `json:"frequent"`
	// Duplicates is documented on Candidates.
	Duplicates int `json:"duplicates"`
}

// VertexWire is one vertex to add in a mutation batch.
type VertexWire struct {
	// ID is the vertex identifier.
	ID int `json:"id"`
	// Label is the vertex label.
	Label int `json:"label"`
}

// MutateRequest applies a mutation batch and refreezes: the response epoch
// is the first epoch whose snapshots include the batch. Additions are
// applied first (vertices before edges), then edge removals, then vertex
// removals — so a batch can move an edge or replace a vertex in one epoch.
type MutateRequest struct {
	// AddVertices lists vertices to add (applied before edges).
	AddVertices []VertexWire `json:"add_vertices,omitempty"`
	// AddEdges lists undirected edges to add as vertex-ID pairs.
	AddEdges [][2]int `json:"add_edges,omitempty"`
	// RemoveEdges lists undirected edges to remove as vertex-ID pairs.
	// Absent edges are skipped, not errors, so batches replay idempotently —
	// and a skipped removal never dirties a shard or reaches a mutation
	// feed.
	RemoveEdges [][2]int `json:"remove_edges,omitempty"`
	// RemoveVertices lists vertices to remove; each removal cascades over
	// the vertex's incident edges. Absent vertices are skipped like absent
	// edges.
	RemoveVertices []int `json:"remove_vertices,omitempty"`
}

// MutateResponse reports the outcome of a mutation batch.
type MutateResponse struct {
	// Epoch is the new epoch published by the refreeze.
	Epoch uint64 `json:"epoch"`
	// AppliedVertices and AppliedEdges count the mutations that took effect
	// (duplicates and no-ops are skipped, not errors).
	AppliedVertices int `json:"applied_vertices"`
	// AppliedEdges is documented on AppliedVertices.
	AppliedEdges int `json:"applied_edges"`
	// RemovedEdges and RemovedVertices count the removals that took effect;
	// RemovedEdges does not include edges cascaded away by a vertex removal.
	RemovedEdges int `json:"removed_edges"`
	// RemovedVertices is documented on RemovedEdges.
	RemovedVertices int `json:"removed_vertices"`
}

// OpenSessionRequest starts a warm mining session.
type OpenSessionRequest struct {
	// Mine is the session's mining configuration.
	Mine MineWire `json:"mine"`
}

// SessionRequest addresses an existing session.
type SessionRequest struct {
	// Session is the session ID returned by OpenSession.
	Session string `json:"session"`
}

// SessionResponse carries a session's identity and its current mining
// result.
type SessionResponse struct {
	// Session is the session ID to present on refresh/close.
	Session string `json:"session"`
	// Tracked is the number of candidate patterns the session keeps warm.
	Tracked int `json:"tracked"`
	// Result is the session's mining result at its epoch.
	Result MineResponse `json:"result"`
}

// CloseSessionResponse acknowledges a session close.
type CloseSessionResponse struct {
	// Closed echoes the closed session ID.
	Closed string `json:"closed"`
}

// StatsResponse describes the serving state of the daemon.
type StatsResponse struct {
	// Epoch is the current snapshot epoch.
	Epoch uint64 `json:"epoch"`
	// Source describes the data source ("graph", "snapshot", "store" or
	// "durable").
	Source string `json:"source"`
	// Name is the data graph's name.
	Name string `json:"name"`
	// Vertices, Edges, Shards and ShardSize describe the current snapshot.
	Vertices int `json:"vertices"`
	// Edges is documented on Vertices.
	Edges int `json:"edges"`
	// Shards is documented on Vertices.
	Shards int `json:"shards"`
	// ShardSize is documented on Vertices.
	ShardSize int `json:"shard_size"`
	// Sessions is the number of live mining sessions.
	Sessions int `json:"sessions"`
	// MineInFlight is the number of mining jobs currently admitted.
	MineInFlight int `json:"mine_in_flight"`
	// Residency is the store paging summary; empty unless store-backed.
	Residency string `json:"residency,omitempty"`

	// The remaining fields are process-cumulative counters sourced from the
	// metrics registry — monotone counts, never timings. They describe the
	// whole process since start, not the current epoch, so they are excluded
	// from the byte-identical determinism guarantee of the other /v1 bodies.

	// PageIns counts store shard segments mapped in on demand.
	PageIns uint64 `json:"page_ins"`
	// Evictions counts store shard segments evicted under residency pressure.
	Evictions uint64 `json:"evictions"`
	// SessionsEvicted counts sessions reclaimed by the idle-TTL janitor.
	SessionsEvicted uint64 `json:"sessions_evicted"`
	// MutationsApplied counts graph mutations applied process-wide.
	MutationsApplied uint64 `json:"mutations_applied"`
}

// ErrorWire is the JSON body of every non-2xx response.
type ErrorWire struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// encodeEvaluation renders an engine evaluation response in wire form. It is
// exported to the tests and the bench load generator through the package so
// byte-identical comparisons encode expected values the exact same way.
func encodeEvaluation(resp *support.Response) *EvaluateResponse {
	out := &EvaluateResponse{Epoch: resp.Epoch, Results: make(map[string]MeasureWire, len(resp.Evaluation.Results))}
	for name, r := range resp.Evaluation.Results {
		out.Results[name] = MeasureWire{Value: r.Value, Exact: r.Exact}
	}
	if resp.Plan != nil {
		out.Plan = resp.Plan.String()
	}
	return out
}

// encodeMining renders a mining result in wire form at the given epoch.
func encodeMining(epoch uint64, res *support.MinerResult) *MineResponse {
	out := &MineResponse{
		Epoch:      epoch,
		Patterns:   make([]PatternResultWire, 0, len(res.Patterns)),
		Candidates: res.Stats.Candidates,
		Pruned:     res.Stats.Pruned,
		Frequent:   res.Stats.Frequent,
		Duplicates: res.Stats.Duplicates,
	}
	for _, fp := range res.Patterns {
		out.Patterns = append(out.Patterns, encodePattern(fp))
	}
	return out
}

// encodePattern renders one frequent pattern in wire form: labels in
// canonical node order, edges as positions into that order.
func encodePattern(fp support.FrequentPattern) PatternResultWire {
	p := fp.Pattern
	nodes := p.Nodes()
	pos := make(map[support.VertexID]int, len(nodes))
	labels := make([]int, len(nodes))
	for i, n := range nodes {
		pos[n] = i
		labels[i] = int(p.LabelOf(n))
	}
	edges := make([][2]int, 0, p.NumEdges())
	for _, e := range p.Edges() {
		u, v := pos[e.U], pos[e.V]
		if u > v {
			u, v = v, u
		}
		edges = append(edges, [2]int{u, v})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return PatternResultWire{
		Labels:      labels,
		Edges:       edges,
		Support:     fp.Support,
		Exact:       fp.Exact,
		Occurrences: fp.Occurrences,
		Instances:   fp.Instances,
	}
}

// engineOptions folds a wire override onto the engine defaults, clamped to
// the server's admission limits; a nil override still applies the clamp.
func engineOptions(defaults support.EngineOptions, ow *OptionsWire, maxParallelism int) *support.EngineOptions {
	o := defaults
	if ow != nil {
		o.Parallelism = ow.Parallelism
		o.Streaming = ow.Streaming
	}
	o.Parallelism = clampParallelism(o.Parallelism, maxParallelism)
	return &o
}

// clampParallelism bounds one request's enumeration worker count: zero (auto
// = GOMAXPROCS) becomes the cap itself, so a single request can never fan
// out past what admission control grants it.
func clampParallelism(requested, max int) int {
	if max <= 0 {
		return requested
	}
	if requested == 0 || requested > max {
		return max
	}
	return requested
}
