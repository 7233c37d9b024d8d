package support

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/miner"
	"repro/internal/obs"
	"repro/internal/store"
)

// EngineOptions is the one options type of the library: an Engine is
// constructed with it and individual requests may override its per-request
// fields (MaxOccurrences, Parallelism, Streaming). The CLIs and the gserved
// server speak it too.
//
// Parallelism, Shards and ResidencyBudget never change results; the cap
// truncates deterministically, and Streaming narrows which measures an
// evaluation can compute.
type EngineOptions struct {
	// MaxOccurrences caps occurrence enumeration per evaluated pattern; zero
	// means unlimited. A positive cap forces sequential enumeration so the
	// kept prefix is deterministic.
	MaxOccurrences int
	// Parallelism is the worker count of the streaming enumeration engine:
	// 0 picks GOMAXPROCS (with a sequential fallback on tiny inputs), 1
	// forces the deterministic sequential path, higher values are used as
	// given.
	Parallelism int
	// Shards is the CSR shard count snapshots are frozen with: 0 keeps the
	// graph's automatic sharding (one shard up to 65536 vertices). Like
	// ResidencyBudget it is an engine-level property, fixed at construction
	// and not overridable per request; snapshot- and store-backed engines
	// ignore it, their sources carry their own shard geometry.
	Shards int
	// Streaming makes evaluation requests skip materializing the occurrence
	// list and hypergraph; occurrences are folded into incremental
	// aggregates as they stream out of the enumeration workers. Only MNI and
	// the raw occurrence/instance counts can be computed on streaming state.
	// Mining requests ignore it: the miner picks streamed or materialized
	// per-candidate contexts from what its measure can run on.
	Streaming bool
	// ResidencyBudget caps the resident bytes of a store-backed engine's
	// mmapped shards, in ParseResidencyBudget syntax (bytes, "64MiB", "25%";
	// empty = unlimited). It is an engine-level property consumed by
	// OpenStoreEngine and cannot be overridden per request; graph- and
	// snapshot-backed engines ignore it.
	ResidencyBudget string
}

// contextOptions projects the enumeration-facing fields onto core.Options.
func (o EngineOptions) contextOptions() core.Options {
	return core.Options{
		MaxOccurrences: o.MaxOccurrences,
		Parallelism:    o.Parallelism,
		Shards:         o.Shards,
		Streaming:      o.Streaming,
	}
}

// MineSpec is the mining half of a Request: the knobs that shape the
// frequent-pattern search itself. The enumeration knobs live in
// EngineOptions; an Engine combines both into the miner configuration.
type MineSpec struct {
	// MinSupport is the frequency threshold: a pattern is frequent when its
	// support is >= MinSupport.
	MinSupport float64
	// MaxPatternSize bounds the number of nodes of explored patterns. Zero
	// means the miner's DefaultMaxPatternSize.
	MaxPatternSize int
	// MaxPatterns stops the search after this many frequent patterns have
	// been reported; zero means unlimited.
	MaxPatterns int
	// Measure is the support measure driving pruning; nil means MNI.
	Measure Measure
	// Workers is the candidate-level evaluation parallelism per search
	// level; values below 2 evaluate sequentially.
	Workers int
}

// minerConfig combines the mining spec with engine-level enumeration options
// into the internal miner configuration.
func (ms *MineSpec) minerConfig(o EngineOptions) miner.Config {
	return miner.Config{
		MinSupport:      ms.MinSupport,
		MaxPatternSize:  ms.MaxPatternSize,
		MaxPatterns:     ms.MaxPatterns,
		Measure:         ms.Measure,
		MaxOccurrences:  o.MaxOccurrences,
		Parallelism:     ms.Workers,
		EnumParallelism: o.Parallelism,
		EnumShards:      o.Shards,
	}
}

// Request is the one request surface of the Engine: a support-evaluation
// request carries a Pattern (and optionally measure names), a mining request
// carries a MineSpec, and either kind may additionally ask for a plan
// explanation. The option-free Evaluate, the CLIs and the gserved server all
// reduce to this type.
type Request struct {
	// Pattern is the query pattern of an evaluation or explanation request;
	// nil for mining requests.
	Pattern *Pattern
	// Measures names the measures to evaluate; empty means the default set
	// (shrunk to the streaming-capable measures on streaming state).
	Measures []string
	// Mine, when non-nil, makes this a mining request. It is mutually
	// exclusive with Pattern/Measures.
	Mine *MineSpec
	// Explain additionally compiles (without running it) the search plan of
	// Pattern over the engine's current snapshot into Response.Plan.
	Explain bool
	// Options, when non-nil, overrides the engine's default EngineOptions
	// for this request. Shards and ResidencyBudget are excepted: the shard
	// geometry and the residency budget are fixed when the engine opens its
	// source, so the request is always answered on the pinned snapshot.
	Options *EngineOptions
}

// Response is the outcome of one Engine request.
type Response struct {
	// Epoch identifies the immutable snapshot the request was answered on;
	// it starts at 1 and increments on every Engine.Update handoff.
	Epoch uint64
	// Evaluation holds the measure results of an evaluation request; nil
	// for mining requests.
	Evaluation *Evaluation
	// Mining holds the result of a mining request; nil otherwise.
	Mining *MinerResult
	// Plan is the compiled search-plan explanation when Request.Explain was
	// set (and the request had a Pattern); nil otherwise.
	Plan *PlanExplanation
}

// engineState is one epoch of an Engine: an immutable snapshot plus its
// sequence number. The Engine swaps whole states atomically, so in-flight
// requests keep reading the snapshot they loaded while new requests see the
// refrozen one — MVCC on top of the snapshot layer's immutability.
type engineState struct {
	snap  *Snapshot
	epoch uint64
}

// Engine is the long-lived serving core of the library: it opens a data
// source once — a mutable Graph, an explicit frozen Snapshot, or an
// out-of-core Store — and answers evaluation, mining and explanation
// Requests from any number of concurrent goroutines against an immutable
// pinned snapshot.
//
// Concurrency model (the snapshot epoch handoff): Do never locks — it reads
// the current (snapshot, epoch) pair with one atomic load and runs entirely
// on that immutable snapshot. Update serializes writers, mutates the graph,
// refreezes, and atomically publishes the next epoch; requests in flight
// across the handoff simply finish on the snapshot they pinned. Sessions
// (OpenSession) read the mutable graph and therefore exclude writers for the
// duration of their refresh, but never each other.
//
// The free function Evaluate builds a throwaway Engine per call; long-lived
// callers — above all the gserved server — construct one Engine and share it.
type Engine struct {
	opts EngineOptions

	// g is the mutable source; nil for snapshot- and store-backed engines.
	g *graph.Graph
	// st is the open store of a store-backed engine; owned and closed by
	// Close. Nil otherwise.
	st *store.Store
	// db is the durable backing of an engine opened with OpenDurableEngine:
	// Update appends acknowledged mutations to its write-ahead log before
	// publishing, and Persist (plus the commitEvery cadence and Close) folds
	// them into its segment store. Nil for every other engine kind.
	db *store.DB
	// freezeOpts is the geometry Update refreezes with: opts.Shards for
	// plain graph engines, the durable store's own geometry for durable ones
	// (so refreezes share clean shards with the last committed snapshot).
	freezeOpts graph.FreezeOptions
	// commitEvery and sinceCommit drive the durable commit cadence; both are
	// guarded by mu.
	commitEvery int
	sinceCommit int

	// mu orders writers (Update: exclusive) against graph-reading
	// operations (sessions: shared). Snapshot-pinned requests take no lock
	// at all.
	mu    sync.RWMutex
	state atomic.Pointer[engineState]
}

// NewEngine returns an engine over a mutable data graph. The graph is frozen
// once with opts.Shards; later mutations must go through Update, which
// refreezes and advances the epoch. Mutating g directly while the engine is
// serving is a data race.
func NewEngine(g *Graph, opts EngineOptions) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("support: NewEngine needs a non-nil graph (use NewSnapshotEngine or OpenStoreEngine for immutable sources)")
	}
	e := &Engine{opts: opts, g: g, freezeOpts: graph.FreezeOptions{Shards: opts.Shards}}
	snap := g.FreezeSharded(e.freezeOpts)
	e.state.Store(&engineState{snap: snap, epoch: 1})
	mEpoch.Set(1)
	return e, nil
}

// NewSnapshotEngine returns an engine over an explicit frozen snapshot —
// typically one obtained from an already-open Store. The engine is
// immutable: Update and OpenSession fail, and opts.Shards is ignored in
// favor of the snapshot's own geometry.
func NewSnapshotEngine(snap *Snapshot, opts EngineOptions) (*Engine, error) {
	if snap == nil {
		return nil, fmt.Errorf("support: NewSnapshotEngine needs a non-nil snapshot")
	}
	e := &Engine{opts: opts}
	e.state.Store(&engineState{snap: snap, epoch: 1})
	mEpoch.Set(1)
	return e, nil
}

// OpenStoreEngine opens the out-of-core shard store at dir under
// opts.ResidencyBudget and serves its mmap-backed snapshot. The engine owns
// the store: Close unmaps it. Like NewSnapshotEngine the result is
// immutable, and opts.Shards is ignored.
func OpenStoreEngine(dir string, opts EngineOptions) (*Engine, error) {
	st, err := store.OpenWithBudget(dir, opts.ResidencyBudget)
	if err != nil {
		return nil, err
	}
	e := &Engine{opts: opts, st: st}
	e.state.Store(&engineState{snap: st.Snapshot(), epoch: 1})
	mEpoch.Set(1)
	return e, nil
}

// Options returns the engine's default options.
func (e *Engine) Options() EngineOptions { return e.opts }

// Mutable reports whether the engine serves a mutable graph (Update and
// OpenSession work) rather than an immutable snapshot or store.
func (e *Engine) Mutable() bool { return e.g != nil }

// Current returns the engine's pinned snapshot and its epoch. The snapshot
// is immutable and remains valid (and byte-stable) after any number of later
// Updates — retain it to re-answer questions as of that epoch.
func (e *Engine) Current() (*Snapshot, uint64) {
	st := e.state.Load()
	return st.snap, st.epoch
}

// Epoch returns the current epoch number.
func (e *Engine) Epoch() uint64 { return e.state.Load().epoch }

// Residency returns the paging statistics of a store-backed engine; ok is
// false for graph- and snapshot-backed engines.
func (e *Engine) Residency() (stats ResidencyStats, ok bool) {
	if e.st == nil {
		return ResidencyStats{}, false
	}
	return e.st.Residency(), true
}

// Close releases resources owned by the engine: the mmapped store of a
// store-backed engine, or the durable database of a durable engine — after
// one final commit, so a clean shutdown leaves an empty write-ahead log and
// a segment store holding the last epoch exactly. Sessions must be closed
// first; requests must not be in flight. Close is idempotent.
func (e *Engine) Close() error {
	if e.db != nil {
		db := e.db
		e.db = nil
		_, cerr := db.Commit()
		if err := db.Close(); cerr == nil {
			cerr = err
		}
		return cerr
	}
	if e.st == nil {
		return nil
	}
	st := e.st
	e.st = nil
	return st.Close()
}

// Update applies a mutation batch to a graph-backed engine and performs the
// snapshot epoch handoff: mutate runs under the writer lock (excluding
// session refreshes but not snapshot-pinned requests, which keep reading the
// old epoch), the graph is refrozen, and the new (snapshot, epoch) pair is
// published atomically. It returns the new epoch.
//
// The refreeze happens even when mutate returns an error, so any mutations
// applied before the failure become visible at the returned epoch instead of
// leaking silently into a later one. A nil mutate is a pure refreeze (epoch
// bump with unchanged data).
//
// On a durable engine the applied mutations are appended to the write-ahead
// log (one fsynced batch) before the new epoch is published, so every epoch
// a caller has seen can be reconstructed after a crash; a WAL failure still
// publishes — the mutations did happen — but is reported so the caller
// knows the batch is not yet crash-durable. Every commitEvery successful
// updates the log is folded into the segment store in the background of the
// writer lock (see OpenDurableEngine).
func (e *Engine) Update(mutate func(g *Graph) error) (uint64, error) {
	if e.g == nil {
		return 0, fmt.Errorf("support: engine source is immutable (snapshot- or store-backed); Update needs a graph-backed engine")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var mutErr error
	if mutate != nil {
		mutErr = mutate(e.g)
	}
	var logErr error
	if e.db != nil {
		logErr = e.db.Log()
	}
	// The refreeze runs under e.mu on purpose: readers pin snapshots with an
	// atomic load and never take e.mu, so holding it here only serializes
	// writers.
	snap := e.g.FreezeSharded(e.freezeOpts)
	next := &engineState{snap: snap, epoch: e.state.Load().epoch + 1}
	e.state.Store(next)
	mUpdates.Inc()
	mEpoch.Set(int64(next.epoch))
	if e.db != nil && e.commitEvery > 0 {
		e.sinceCommit++
		if e.sinceCommit >= e.commitEvery {
			if _, err := e.db.Commit(); err != nil {
				if logErr == nil {
					logErr = err
				}
			} else {
				e.sinceCommit = 0
			}
		}
	}
	if mutErr != nil {
		return next.epoch, mutErr
	}
	return next.epoch, logErr
}

// Do answers one Request on the engine's current snapshot. It is safe for
// any number of concurrent callers and never blocks on writers: the
// (snapshot, epoch) pair is pinned with one atomic load and the request runs
// to completion on it, even if an Update hands off a new epoch mid-flight.
// It is DoContext with a background context: no trace is attached.
func (e *Engine) Do(req *Request) (*Response, error) {
	return e.DoContext(context.Background(), req)
}

// DoContext is Do with a context. The context carries observability only —
// when an obs.Trace is attached (obs.ContextWithTrace), the request's phases
// are recorded as child spans of the trace root (plan, enumerate, aggregate,
// mine — the last with generate and evaluate children and the search counts
// as attributes) and the root is annotated with the answering epoch.
// Cancellation is not consulted: requests run on an immutable snapshot and
// always complete. The Response is a pure function of (request, pinned
// snapshot); nothing timing-dependent ever enters it.
func (e *Engine) DoContext(ctx context.Context, req *Request) (*Response, error) {
	if req == nil {
		return nil, fmt.Errorf("support: nil request")
	}
	mRequests.Inc()
	root := obs.FromContext(ctx).Root()
	opts := e.opts
	if req.Options != nil {
		opts = *req.Options
		opts.Shards, opts.ResidencyBudget = e.opts.Shards, e.opts.ResidencyBudget
	}
	st := e.state.Load()
	snap, epoch := st.snap, st.epoch
	root.SetAttrInt("epoch", int64(epoch))

	if req.Mine != nil && (req.Pattern != nil || len(req.Measures) > 0) {
		return nil, fmt.Errorf("support: a request either mines (Mine) or evaluates a pattern (Pattern/Measures), not both")
	}
	resp := &Response{Epoch: epoch}
	if req.Explain {
		if req.Pattern == nil {
			return nil, fmt.Errorf("support: Explain requires a Pattern")
		}
		sp := root.Start("plan")
		t := obs.StartTimer()
		resp.Plan = ExplainPlan(snap, req.Pattern)
		t.ObserveInto(mPlanSeconds)
		sp.End()
		mExplains.Inc()
	}

	switch {
	case req.Mine != nil:
		sp := root.Start("mine")
		t := obs.StartTimer()
		m, err := miner.NewSnapshot(snap, req.Mine.minerConfig(opts))
		if err != nil {
			sp.End()
			return nil, err
		}
		res, err := m.Mine()
		t.ObserveInto(mMineSeconds)
		if err == nil {
			observeMining(sp, res.Stats)
		}
		sp.End()
		if err != nil {
			return nil, err
		}
		mMines.Inc()
		resp.Mining = res
		return resp, nil

	case req.Pattern != nil:
		sp := root.Start("enumerate")
		t := obs.StartTimer()
		copts := opts.contextOptions()
		copts.Snapshot = snap
		ectx, err := core.NewContext(e.g, req.Pattern, copts)
		t.ObserveInto(mEnumerateSeconds)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = root.Start("aggregate")
		t = obs.StartTimer()
		ev, err := evaluateNamed(ectx, req.Measures)
		t.ObserveInto(mAggregateSeconds)
		sp.End()
		if err != nil {
			return nil, err
		}
		mEvaluations.Inc()
		resp.Evaluation = ev
		return resp, nil

	default:
		return nil, fmt.Errorf("support: request needs a Pattern or a Mine spec")
	}
}

// observeMining opens up the mine span with what the miner counted and timed
// itself — candidate generation against support evaluation, and the search
// counts as attributes — and adds the counts to the repro_miner_ counters.
// None of it reaches a Response.
func observeMining(sp *obs.Span, st miner.Stats) {
	sp.Record("generate", st.Generate)
	sp.Record("evaluate", st.Evaluate)
	sp.SetAttrInt("extensions", int64(st.Extensions))
	sp.SetAttrInt("codes", int64(st.Codes))
	sp.SetAttrInt("duplicates", int64(st.Duplicates))
	sp.SetAttrInt("candidates", int64(st.Candidates))
	mMinerExtensions.Add(uint64(st.Extensions))
	mMinerCodes.Add(uint64(st.Codes))
	mMinerDuplicates.Add(uint64(st.Duplicates))
	mMinerCandidates.Add(uint64(st.Candidates))
}

// evaluateNamed computes the named measures (default set when none are
// given) on a prepared context.
func evaluateNamed(ctx *Context, names []string) (*Evaluation, error) {
	if len(names) == 0 {
		return measures.Evaluate(ctx)
	}
	reg := measures.NewRegistry()
	ms := make([]Measure, 0, len(names))
	for _, n := range names {
		m, err := reg.New(n)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return measures.Evaluate(ctx, ms...)
}

// OpenSession starts a warm mining session on a graph-backed engine: the
// initial result equals a cold mine, and Refresh re-answers the
// frequent-pattern question from live delta-maintained support state after
// Updates. The session reads the mutable graph, so its operations hold the
// engine's shared lock — concurrent sessions proceed in parallel, writers
// wait. Close the session when the client goes away; the gserved session
// manager evicts idle ones.
func (e *Engine) OpenSession(spec MineSpec) (*Session, error) {
	if e.g == nil {
		return nil, fmt.Errorf("support: engine source is immutable (snapshot- or store-backed); sessions need a graph-backed engine")
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	inc, err := miner.NewIncremental(e.g, spec.minerConfig(e.opts))
	if err != nil {
		return nil, err
	}
	mSessionOpens.Inc()
	return &Session{e: e, inc: inc}, nil
}

// Session is one warm mining session opened on an Engine: a thin,
// engine-locked wrapper around the incremental miner. A Session serves one
// client at a time (its methods must not be called concurrently with each
// other); different sessions are independent.
type Session struct {
	e   *Engine
	inc *miner.Incremental
}

// Refresh synchronizes the session with every Update since the previous
// refresh and returns the updated mining result — equal to a cold mine of
// the current epoch — together with the epoch it corresponds to.
func (s *Session) Refresh() (*MinerResult, uint64, error) {
	s.e.mu.RLock()
	defer s.e.mu.RUnlock()
	t := obs.StartTimer()
	res, err := s.inc.Refresh()
	t.ObserveInto(mSessionRefreshSeconds)
	if err != nil {
		return nil, 0, err
	}
	return res, s.e.state.Load().epoch, nil
}

// Result returns the session's most recent mining result without
// refreshing.
func (s *Session) Result() *MinerResult { return s.inc.Result() }

// TrackedPatterns returns the number of candidate patterns the session keeps
// warm (frequent patterns plus the pruned boundary).
func (s *Session) TrackedPatterns() int { return s.inc.TrackedPatterns() }

// Close releases the session's live delta contexts and mutation-feed
// subscriptions. It is idempotent; the last Result stays readable.
func (s *Session) Close() { s.inc.Close() }
