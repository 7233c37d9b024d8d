// Package miner implements a single-graph frequent subgraph miner in the
// style of GraMi / SIGRAM: starting from frequent one-edge patterns it grows
// candidates by adding edges or vertices, de-duplicates candidates by
// canonical code, evaluates a pluggable support measure, and prunes every
// branch whose support falls below the threshold. Because all measures in
// this library are anti-monotonic, pruning is safe: no frequent pattern is
// missed (the central argument of Chapter 2).
//
// The package has one lattice walk (seeding, growth, de-duplication and the
// grow-step witnesses); a cold mine (Miner) and a warm session (Incremental)
// differ only in how they decide the candidates it hands them.
//
// Under MNI the miner uses anti-monotonicity node by node as well: a level is
// searched inside the level below it. Every grow step that reaches a
// candidate from a frequent pattern places that parent inside it, so the
// parent's MNI domains bound the candidate's; a candidate is confined to
// their intersection, or shown infrequent without a search when a sub-pattern
// is not frequent or an intersection is too small (Miner.Mine,
// Stats.Unsearched). Results and counts are the unconfined walk's.
package miner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/measures"
	"repro/internal/pattern"
)

// Config controls a mining run.
type Config struct {
	// MinSupport is the frequency threshold: a pattern is frequent when its
	// support is >= MinSupport.
	MinSupport float64
	// MaxPatternSize bounds the number of nodes of explored patterns. Zero
	// means DefaultMaxPatternSize.
	MaxPatternSize int
	// MaxPatterns stops the search after this many frequent patterns have
	// been reported; zero means unlimited.
	MaxPatterns int
	// Measure is the support measure driving pruning. Nil means MNI, the
	// fastest of the anti-monotonic measures, mirroring GraMi's choice.
	Measure measures.Measure
	// Parallelism is the number of worker goroutines used to evaluate the
	// candidates of each search level concurrently — and, in an Incremental
	// session, to fan the independent tracked-candidate delta refreshes out
	// on Refresh. Values below 2 run sequentially. Support evaluation of
	// different candidates is independent, so this is the "additiveness"
	// extension sketched in the paper's future work (Chapter 6); results
	// are identical to a sequential run regardless of the setting.
	Parallelism int
	// EnumParallelism is the worker count of the per-candidate occurrence
	// enumeration engine (core.Options.Parallelism): 0 picks GOMAXPROCS
	// with a sequential fallback on tiny inputs, 1 forces the sequential
	// path. When candidate-level Parallelism is active, an auto (zero)
	// value resolves to sequential enumeration instead, so the two levels
	// do not multiply into GOMAXPROCS² goroutines. Mining results are
	// identical for every setting.
	EnumParallelism int
	// EnumShards is the CSR shard count of the frozen snapshot per-candidate
	// enumeration runs on (core.Options.Shards): 0 keeps the graph's
	// automatic sharding, positive values split the vertex range into that
	// many contiguous shards. Mining results are identical for every setting.
	EnumShards int
}

// DefaultMaxPatternSize bounds pattern growth when the caller does not say
// otherwise; five-node patterns keep the NP-hard measures comfortably exact.
const DefaultMaxPatternSize = 5

// FrequentPattern is one mining result.
type FrequentPattern struct {
	// Pattern is the frequent pattern.
	Pattern *pattern.Pattern
	// Support is the value of the configured measure.
	Support float64
	// Exact mirrors the measure result's exactness flag.
	Exact bool
	// Occurrences and Instances are the raw counts observed while evaluating
	// the pattern.
	Occurrences int
	Instances   int
}

// Stats summarizes the work done by a mining run.
type Stats struct {
	// Candidates is the number of candidate patterns considered (after
	// canonical-code de-duplication): the support of each was either
	// evaluated or shown below the threshold without a search.
	Candidates int
	// Pruned is the number of considered candidates that fell below the
	// threshold.
	Pruned int
	// Unsearched is the number of pruned candidates shown infrequent without
	// a search, from their sub-patterns' domains alone (see Miner); a subset
	// of Pruned.
	Unsearched int
	// Frequent is the number of frequent patterns reported.
	Frequent int
	// Duplicates is the number of candidates skipped because an isomorphic
	// pattern had already been evaluated.
	Duplicates int
	// Extensions is the number of extensions pattern.Extend returned to the
	// search: grow steps of frequent patterns, one per shape and parent.
	Extensions int
	// Codes is the number of candidate shapes the search generated: one per
	// one-edge seed and one per grow step of a grown pattern, including the
	// steps de-duplicated away (pattern.GrowSteps). A grow step that the
	// parent's symmetry repeats is counted but its code never computed.
	Codes int
	// Elapsed is the wall-clock duration of the run. Generate and Evaluate
	// split it: Generate is the time spent producing candidates (seeding,
	// Extend, canonical codes, de-duplication, ordering), Evaluate the time
	// spent computing their supports.
	Elapsed  time.Duration
	Generate time.Duration
	Evaluate time.Duration
}

// Result is the outcome of a mining run.
type Result struct {
	Patterns []FrequentPattern
	Stats    Stats
}

// Miner mines frequent patterns from one frozen snapshot of a data graph:
// the one it is handed (NewSnapshot — the engine's and the out-of-core mining
// path) or the one New freezes.
type Miner struct {
	snap *graph.Snapshot
	cfg  Config
	// streaming selects streamed per-candidate contexts. It is derived, not
	// configured: when the measure runs on streamed aggregates (MNI, the raw
	// counts), materializing occurrence lists and hypergraphs per candidate
	// is pure overhead; every other measure needs the materialized state.
	// The mining result is the same either way.
	streaming bool
	// lattice says whether a level is searched inside the level below it:
	// the measure is MNI, the one whose "below the threshold" and "domain"
	// mean exactly what the confinement rule needs (see Mine). It too is
	// derived, not configured.
	lattice bool
}

// New returns a miner over the data graph as it is now: it freezes g once,
// into cfg.EnumShards shards, and mines that snapshot.
func New(g *graph.Graph, cfg Config) (*Miner, error) {
	if g == nil {
		return nil, fmt.Errorf("miner: nil data graph")
	}
	return NewSnapshot(g.FreezeSharded(graph.FreezeOptions{Shards: cfg.EnumShards}), cfg)
}

// NewSnapshot returns a miner that runs entirely on an explicit frozen
// snapshot — no mutable Graph is required or consulted, so store-opened,
// mmap-backed snapshots (internal/store) mine like any other: seed label
// pairs and the extension alphabet are derived from the snapshot's CSR
// arrays, and every per-candidate enumeration is pinned to the snapshot, so
// results are identical to mining the graph the snapshot was frozen from.
// Config.EnumShards is ignored — the snapshot's own shard geometry applies.
// The configuration is validated and defaulted here.
func NewSnapshot(snap *graph.Snapshot, cfg Config) (*Miner, error) {
	if snap == nil {
		return nil, fmt.Errorf("miner: nil snapshot")
	}
	if cfg.MinSupport <= 0 {
		return nil, fmt.Errorf("miner: MinSupport must be positive, got %v", cfg.MinSupport)
	}
	if cfg.MaxPatternSize == 0 {
		cfg.MaxPatternSize = DefaultMaxPatternSize
	}
	if cfg.MaxPatternSize < 2 {
		return nil, fmt.Errorf("miner: MaxPatternSize must be at least 2, got %d", cfg.MaxPatternSize)
	}
	if cfg.Measure == nil {
		cfg.Measure = measures.MNI{}
	}
	return &Miner{
		snap:      snap,
		cfg:       cfg,
		streaming: measures.SupportsStreaming(cfg.Measure),
		lattice:   cfg.Measure.Name() == measures.NameMNI,
	}, nil
}

// Config returns the effective configuration of the miner after defaulting:
// the measure fallback to MNI and the default size cap.
func (m *Miner) Config() Config { return m.cfg }

// Mine runs the search and returns every frequent pattern found together
// with run statistics. Patterns are reported in breadth-first order (fewer
// edges first, since every grow step adds exactly one edge) and, within a
// level, by canonical code. It is MineContext with a background context.
//
// Under MNI a level is searched inside the level below it. Every occurrence
// of a candidate restricts to an occurrence of each of its connected
// one-edge-smaller sub-patterns, so a candidate node's MNI domain lies inside
// the domain of every sub-pattern node it becomes. The walk does not take a
// candidate apart to find them: the grow steps that built it from the
// previous level's frequent patterns are its sub-patterns, placed in it. Each
// step hands the candidate a witness — the parent's MNI domains as bitsets
// over the snapshot's dense indexes (core.NewDomainContext), mapped to the
// candidate's canonical places, and the place pair of the edge it added —
// closed over the candidate's automorphisms. A candidate whose witness has
// not heard from some sub-pattern (an edge whose removal leaves it connected,
// or drops a leaf, that no step added up to symmetry) has an infrequent
// sub-pattern — the walk finds every frequent pattern of a level — and is
// infrequent too. A candidate whose intersected domains leave some node fewer
// than MinSupport vertices has MNI below MinSupport. Both are pruned without
// a search (Stats.Unsearched). Every other candidate is searched confined to
// the intersections (isomorph.Options.Masks), which drop only vertices no
// occurrence uses: supports, counts and Stats are what an unconfined search
// gives.
func (m *Miner) Mine() (*Result, error) { return m.MineContext(context.Background()) }

// MineContext is Mine under ctx: the miner checks ctx between candidates,
// never inside a search, and once it is done returns its error instead of a
// result.
func (m *Miner) MineContext(ctx context.Context) (*Result, error) {
	start := time.Now()
	res := &Result{}
	w := newWalk(m.snap, m.cfg.MaxPatternSize)
	eval := func(wave []candidate) ([]decision, error) {
		evalStart := time.Now()
		defer func() { res.Stats.Evaluate += time.Since(evalStart) }()
		return m.evaluateLevel(ctx, wave)
	}
	visit := func(d decision) bool {
		if m.cfg.MaxPatterns > 0 && res.Stats.Frequent >= m.cfg.MaxPatterns {
			return false
		}
		res.Stats.Candidates++
		if !d.frequent {
			res.Stats.Pruned++
			if d.unsearched {
				res.Stats.Unsearched++
			}
			return true
		}
		res.Patterns = append(res.Patterns, d.fp)
		res.Stats.Frequent++
		return true
	}
	if err := w.climb(w.seed(seedPairs(m.snap)), eval, visit); err != nil {
		return nil, err
	}
	w.count(&res.Stats)
	res.Stats.Elapsed = time.Since(start)
	res.Stats.Generate = res.Stats.Elapsed - res.Stats.Evaluate
	return res, nil
}

// inherit confines c's search to its witness's domains. It reports false —
// c is below the threshold, without a search — when the witness has not heard
// from every sub-pattern, or when an intersection holds fewer than MinSupport
// vertices.
func (m *Miner) inherit(c candidate) ([]isomorph.Mask, bool) {
	if !c.w.complete(c.p) {
		return nil, false
	}
	masks := c.w.domains(c.p)
	for _, mask := range masks {
		if mask != nil && float64(mask.Count()) < m.cfg.MinSupport {
			return nil, false
		}
	}
	return masks, true
}

// evaluateLevel computes the configured support measure for every candidate
// of one search level, fanning the independent evaluations out across
// cfg.Parallelism worker goroutines when asked to, and checking ctx before
// each. The returned slice is aligned with the input slice.
func (m *Miner) evaluateLevel(ctx context.Context, level []candidate) ([]decision, error) {
	results := make([]decision, len(level))
	err := forEach(len(level), m.cfg.Parallelism, func(i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("miner: %w", err)
		}
		d, err := m.evaluate(level[i])
		if err != nil {
			return err
		}
		results[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// forEach calls fn(i) for every i in [0, n) on up to workers goroutines —
// on the calling goroutine, in index order, below two workers or two items —
// and returns the first error; indexes handed out after a failure are
// skipped. Each fn(i) writes only state owned by index i, so what the callers
// build does not depend on scheduling.
//
// Indexes travel over an unbuffered channel on purpose: a worker parks
// between items, so inside a serving process a long level or refresh keeps
// yielding its Ps to request goroutines. Workers that claimed indexes from an
// atomic counter never parked, and a concurrent reader's median request
// latency rose by 40 % (benchmark workload serve-rw).
func forEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg      sync.WaitGroup
		failed  atomic.Pointer[error]
		indexes = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				if failed.Load() != nil {
					continue // drain what is left after a failure
				}
				if err := fn(i); err != nil {
					failed.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		indexes <- i
	}
	close(indexes)
	wg.Wait()
	if err := failed.Load(); err != nil {
		return *err
	}
	return nil
}

// evaluate computes the configured support measure for one candidate. Under
// the lattice rule it first confines the candidate to what its witness says
// of its sub-patterns, which may settle it without a search, and returns the
// domains of a frequent candidate, which the next wave's witnesses take.
func (m *Miner) evaluate(c candidate) (decision, error) {
	p := c.p
	enumPar := m.cfg.EnumParallelism
	if enumPar == 0 && m.cfg.Parallelism > 1 {
		// Candidate evaluations already run concurrently; auto-expanding
		// the per-candidate enumeration on top would oversubscribe the
		// machine with Parallelism x GOMAXPROCS workers.
		enumPar = 1
	}
	var d decision
	var ctx *core.Context
	if m.lattice {
		var masks []isomorph.Mask
		if c.w != nil {
			var ok bool
			if masks, ok = m.inherit(c); !ok {
				return decision{unsearched: true}, nil
			}
		}
		ctx, d.domains = core.NewDomainContext(m.snap, p, enumPar, masks)
	} else {
		var err error
		ctx, err = core.NewContext(nil, p, core.Options{
			Parallelism: enumPar,
			Streaming:   m.streaming,
			Snapshot:    m.snap,
		})
		if err != nil {
			return decision{}, fmt.Errorf("miner: building context for %s: %w", p, err)
		}
	}
	r, err := m.cfg.Measure.Compute(ctx)
	if err != nil {
		return decision{}, fmt.Errorf("miner: computing %s for %s: %w", m.cfg.Measure.Name(), p, err)
	}
	d.fp = FrequentPattern{
		Pattern:     p,
		Support:     r.Value,
		Exact:       r.Exact,
		Occurrences: ctx.NumOccurrences(),
		Instances:   ctx.NumInstances(),
	}
	d.frequent = r.Value >= m.cfg.MinSupport
	if !d.frequent {
		d.domains = nil // no witness takes them: the walk grows frequent patterns only
	}
	return d, nil
}
