package miner

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/measures"
	"repro/internal/pattern"
)

// Incremental is a mining session that stays warm across graph mutations:
// after the initial Mine-equivalent run it keeps a core.DeltaContext alive
// for every evaluated candidate — the frequent patterns and the pruned
// boundary alike — and Refresh re-answers the frequent-pattern question by
// applying occurrence deltas to those live contexts instead of re-mining
// from a cold start.
//
// Keeping the pruned boundary warm is what makes Refresh complete, not just
// fast, under insertions and deletions alike. Every tracked candidate is
// re-evaluated on every Refresh, so downward crossings are free: a deletion
// that drags a support below the threshold simply flips the candidate back
// into the pruned boundary, where it stays warm — its children remain
// tracked and re-evaluated too, so their own (necessarily no larger)
// supports answer for themselves. Upward crossings are where new work can
// hide, and they expand the search from exactly the crossing patterns:
// anti-monotonicity guarantees a pattern can newly become frequent only
// after all its subpatterns are, so the frontier of threshold-crossing
// boundary patterns (plus seeds over unseen label pairs and re-extensions
// under a widened alphabet) reaches every newly frequent candidate, and
// those are the only cold enumerations left. Refresh results are therefore
// identical to running Mine from scratch on the mutated graph — the session
// trades the memory of the tracked contexts for never paying the full
// re-enumeration.
//
// The session grows its candidates through Mine's own lattice walk, so its
// candidate set is a cold mine's by construction. It opens the way Mine
// walks, a level inside the level below it: each candidate's first complete
// pass is confined to the intersection of its sub-patterns' MNI domains, as
// its witness carries them — from every candidate of the previous level,
// frequent and boundary alike (each has exact state, so exact domains): the
// frequent ones place themselves as they grow the wave, the boundary through
// the same grow steps once it is grown, admitting and counting nothing.
// Nothing is pruned on the way — the boundary must be tracked exactly.
// Refresh's climbs give no domains, so their cold tracks search the whole
// snapshot.
//
// An Incremental session is single-threaded: Refresh and the accessors must
// not race with each other or with mutations of the data graph.
type Incremental struct {
	g   *graph.Graph
	cfg Config

	// feed is the session's one subscription to the graph's mutations, and
	// snap the snapshot every tracked delta context is synchronized with:
	// Refresh turns what the feed holds into one core.Batch leading from snap
	// to the refrozen graph and hands it to all of them.
	feed *graph.MutationFeed
	snap *graph.Snapshot
	// tracked maps canonical pattern codes to their live mining state; it
	// only ever grows. A candidate whose support falls below the threshold
	// (deletions can do that) is not evicted: it rejoins the pruned boundary,
	// ready to cross back cheaply when later insertions revive it.
	tracked map[string]*trackedPattern
	// walk is the session's lattice walk: its alphabet (widened by new vertex
	// labels on Refresh), its candidate codes — exactly the tracked ones — and
	// its generation counts, which accumulate over the session's runs.
	walk *walk
	// evaluate is the support-evaluation time of the current run.
	evaluate time.Duration
	// owedPairs and regrowAll are growth a Refresh has not finished: the
	// label pairs its batches' added edges seed, and whether every frequent
	// tracked pattern must be grown again — the alphabet widened, or a
	// refresh failed after evaluations may have made patterns frequent, or
	// after a wave admitted candidates it never tracked. They carry over a
	// failed Refresh (its batch is drained) until one completes; growth
	// redone finds what is already tracked and counts it as duplicates.
	owedPairs [][2]graph.Label
	regrowAll bool

	result *Result
	closed bool
}

// trackedPattern is one candidate pattern kept warm across mutations.
type trackedPattern struct {
	p        *pattern.Pattern
	delta    *core.DeltaContext
	support  float64
	exact    bool
	frequent bool
	// stale reports that a batch has moved the context's figures since
	// support, exact and frequent were computed from them.
	stale bool
}

// NewIncremental starts an incremental mining session: it runs the initial
// mining fixpoint (equivalent to Mine) and retains a live delta context per
// evaluated candidate. The configuration is validated as by NewSnapshot on
// the snapshot the session opens on, with two extra constraints that make
// exact delta maintenance possible: the measure must be streaming-capable (it
// is evaluated on live streamed aggregates), and MaxPatterns must be zero (a
// truncated result set has no well-defined delta).
func NewIncremental(g *graph.Graph, cfg Config) (*Incremental, error) {
	if g == nil {
		return nil, fmt.Errorf("miner: nil data graph")
	}
	snap := g.FreezeSharded(graph.FreezeOptions{Shards: cfg.EnumShards})
	m, err := NewSnapshot(snap, cfg)
	if err != nil {
		return nil, err
	}
	cfg = m.Config()
	if !measures.SupportsStreaming(cfg.Measure) {
		return nil, fmt.Errorf("miner: incremental mining requires a streaming-capable measure, %s is not", cfg.Measure.Name())
	}
	if cfg.MaxPatterns != 0 {
		return nil, fmt.Errorf("miner: incremental mining does not support MaxPatterns")
	}
	inc := &Incremental{
		g:       g,
		cfg:     cfg,
		snap:    snap,
		tracked: make(map[string]*trackedPattern),
		walk:    newWalk(snap, cfg.MaxPatternSize),
		// Subscribed before the first enumeration: every mutation after the
		// snapshot above reaches the first Refresh (none can come between
		// the two, as the session must not race with mutations).
		feed: g.Subscribe(),
	}
	start := time.Now()
	if err := inc.walk.climb(inc.walk.seed(seedPairs(snap)), inc.track(true), nil); err != nil {
		inc.Close()
		return nil, err
	}
	inc.assemble(time.Since(start))
	return inc, nil
}

// Close releases the session's mutation feed — the only subscription it
// holds; the tracked delta contexts are fed by the session and own none —
// returning the graph's mutation-feed count to what it was before the
// session existed. It is idempotent — a server evicting a session races its
// own shutdown path against client disconnects, and both may Close — and the
// last Result stays readable. Refresh must not be called after Close.
func (inc *Incremental) Close() {
	if inc.closed {
		return
	}
	inc.closed = true
	inc.feed.Close()
}

// freeze returns the current snapshot of the data graph at the session's
// shard setting (the graph's cached one when nothing has changed).
func (inc *Incremental) freeze() *graph.Snapshot {
	return inc.g.FreezeSharded(graph.FreezeOptions{Shards: inc.cfg.EnumShards})
}

// Result returns the outcome of the most recent initial run or Refresh. The
// Stats describe the whole session: Candidates/Pruned/Frequent count the
// currently tracked patterns, Duplicates/Extensions/Codes accumulate across
// runs, and Elapsed/Generate/Evaluate time the most recent run only.
func (inc *Incremental) Result() *Result { return inc.result }

// TrackedPatterns returns the number of candidates kept warm (frequent
// patterns plus the pruned boundary).
func (inc *Incremental) TrackedPatterns() int { return len(inc.tracked) }

// Refresh synchronizes the session with every graph mutation since the
// previous run — removals included — and returns the updated mining result,
// equal to what Mine would report on the mutated graph. The support of every
// tracked pattern is delta-maintained (no cold re-enumeration) and then
// re-checked against the threshold in both directions: deletions can push a
// previously frequent pattern back into the pruned boundary, and the
// re-assembled result drops it exactly as a cold re-mine would. Only
// patterns that newly become reachable — extensions past a boundary pattern
// that crossed the threshold upward, or seeds over new label pairs — are
// enumerated from scratch, once, on their way into the tracked set. A
// Refresh that fails has drained its batch; the next one, with or without
// new mutations, evaluates what is still stale and does the growth the
// failed one owed.
func (inc *Incremental) Refresh() (res *Result, err error) {
	if inc.closed {
		return nil, fmt.Errorf("miner: Refresh on a closed incremental session")
	}
	muts := inc.feed.Drain()
	if len(muts) == 0 && !inc.owed() {
		return inc.result, nil
	}
	start := time.Now()
	inc.evaluate = 0
	defer func() {
		if err != nil {
			inc.regrowAll = true
			inc.walk.readmit(inc.tracked)
		}
	}()

	// Widen the label alphabet first: extension generation below must see
	// labels introduced by this batch. New one-edge seeds can only come from
	// added edges over unseen label pairs. An edge that was added and then
	// removed (or lost an endpoint) within the same batch seeds nothing: a
	// cold mine of the final graph would not see it either, and its labels
	// may already be gone.
	for _, m := range muts {
		if m.Kind == graph.MutVertexAdded && inc.walk.widen(m.Label) {
			inc.regrowAll = true
		}
		if m.Kind == graph.MutEdgeAdded && inc.g.HasEdge(m.U, m.V) {
			inc.owedPairs = append(inc.owedPairs, labelPair(inc.g.MustLabelOf(m.U), inc.g.MustLabelOf(m.V)))
		}
	}

	// Delta-refresh every tracked candidate. The per-candidate refreshes are
	// independent (they read one prepared batch and write their own state),
	// so they fan out across cfg.Parallelism workers.
	tracked := inc.sortedTracked()
	wasFrequent := make([]bool, len(tracked))
	for i, tp := range tracked {
		wasFrequent[i] = tp.frequent
	}
	refreshStart := time.Now()
	err = inc.refreshTracked(tracked, muts)
	inc.evaluate += time.Since(refreshStart)
	if err != nil {
		return nil, err
	}
	if err := inc.walk.climb(inc.walk.seed(inc.owedPairs), inc.track(false), nil); err != nil {
		return nil, err
	}

	// Then the walk climbs from the tracked patterns that crossed the
	// threshold upward, which have never been grown. A wider alphabet can
	// unlock extensions of patterns that were already frequent, so then every
	// frequent one is grown again (extensions already tracked count as
	// duplicates).
	var next level
	for i, tp := range tracked {
		if tp.frequent && (inc.regrowAll || !wasFrequent[i]) {
			inc.walk.grow(&next, tp.p, nil)
		}
	}
	if err := inc.walk.climb(next.wave, inc.track(false), nil); err != nil {
		return nil, err
	}
	inc.owedPairs, inc.regrowAll = nil, false
	inc.assemble(time.Since(start))
	return inc.result, nil
}

// owed reports that a failed Refresh left growth for the next one.
func (inc *Incremental) owed() bool { return len(inc.owedPairs) > 0 || inc.regrowAll }

// refreshTracked delta-refreshes and re-evaluates every tracked candidate.
// Everything about the update that does not depend on a pattern — the
// refrozen snapshot, the mutated edges and vertices in both index spaces, the size of each
// side's mutation ball at every radius up to the largest pattern diameter —
// is prepared once, before the fan-out, as a read-only core.Batch. With cfg.Parallelism >= 2 the
// independent applications then run on forEach's worker pool, each mutating
// only its candidate's own state, and the tracked states after a parallel
// refresh are identical to a sequential one: delta maintenance is
// per-candidate exact and the candidates share nothing but the batch.
//
// A measure is evaluated again only where it is stale — a batch moved the
// instance count or a domain size (Apply reports it) since the measure was
// last computed, by this batch or by one whose refresh failed before it got
// there: a session's measure is streamed and reads nothing else
// (DeltaContext.Context), so elsewhere the last support, exactness and
// frequency stand.
//
// Every context applies the batch before any measure is evaluated. Apply
// cannot fail on a batch that starts at the snapshot the whole tracked set is
// synchronized with, so a measure's error leaves the session's contexts on
// one snapshot — the new one — and the next Refresh finds them there, instead
// of some moved on and the rest stranded behind a batch they never saw.
func (inc *Incremental) refreshTracked(tracked []*trackedPattern, muts []graph.Mutation) error {
	maxRadius := 0
	for _, tp := range tracked {
		maxRadius = max(maxRadius, tp.delta.Radius())
	}
	if len(muts) > 0 {
		next := inc.freeze()
		batch := core.NewBatch(inc.snap, next, muts, maxRadius)
		err := forEach(len(tracked), inc.cfg.Parallelism, func(i int) error {
			tp := tracked[i]
			moved, err := tp.delta.Apply(batch)
			if err != nil {
				return fmt.Errorf("miner: refreshing %s: %w", tp.p, err)
			}
			tp.stale = tp.stale || moved
			return nil
		})
		if err != nil {
			return err
		}
		inc.snap = next
	}
	return forEach(len(tracked), inc.cfg.Parallelism, func(i int) error {
		if !tracked[i].stale {
			return nil
		}
		return inc.evaluateTracked(tracked[i])
	})
}

// track returns the session's evaluator (see walk.climb). For every candidate
// of a wave, one at a time on the session goroutine, it builds the
// candidate's live delta context on the session's snapshot, evaluates it and
// adds it to the tracked set. Nothing is pruned: every tracked candidate, the
// pruned boundary included, needs its exact state.
//
// With confine set (the open), a context's first pass is confined to its
// witness's domains, and its own domains go to the next wave's witnesses. A
// sub-pattern the witness has not heard from only leaves its places
// unconfined, and a small intersection only makes a small search. Refresh's
// cold tracks search the whole snapshot.
func (inc *Incremental) track(confine bool) evaluator {
	return func(wave []candidate) ([]decision, error) {
		start := time.Now()
		defer func() { inc.evaluate += time.Since(start) }()
		decisions := make([]decision, len(wave))
		for i, c := range wave {
			p := c.p
			// The context's enumeration parallelism is deliberately not
			// throttled under candidate-level Parallelism (unlike
			// Miner.evaluate): cold builds are the expensive enumerations and
			// deserve the full machine, and they alone are what the setting
			// reaches — the delta passes that do run concurrently are
			// searches pinned at the batch's mutated edges, which run on the
			// goroutine that applies the batch by construction. The context
			// subscribes to nothing; refreshTracked feeds it.
			var masks []isomorph.Mask
			if c.w != nil {
				masks = c.w.domains(p)
			}
			d, domains, err := core.NewDeltaContextAt(inc.g, inc.snap, p, core.Options{Parallelism: inc.cfg.EnumParallelism}, masks)
			if err != nil {
				return nil, fmt.Errorf("miner: building delta context for %s: %w", p, err)
			}
			tp := &trackedPattern{p: p, delta: d}
			if err := inc.evaluateTracked(tp); err != nil {
				return nil, err
			}
			inc.tracked[p.CanonicalCode()] = tp
			decisions[i].frequent = tp.frequent
			if confine {
				decisions[i].domains = domains
			}
		}
		return decisions, nil
	}
}

// evaluateTracked computes the configured measure on a candidate's live
// aggregates and updates its support/frequent state.
func (inc *Incremental) evaluateTracked(tp *trackedPattern) error {
	r, err := inc.cfg.Measure.Compute(tp.delta.Context())
	if err != nil {
		return fmt.Errorf("miner: computing %s for %s: %w", inc.cfg.Measure.Name(), tp.p, err)
	}
	tp.support = r.Value
	tp.exact = r.Exact
	tp.frequent = r.Value >= inc.cfg.MinSupport
	tp.stale = false
	return nil
}

// sortedTracked returns the tracked candidates in the deterministic
// reporting order: by edge count (the BFS level, since every grow step adds
// one edge), then canonical code.
func (inc *Incremental) sortedTracked() []*trackedPattern {
	out := make([]*trackedPattern, 0, len(inc.tracked))
	for _, tp := range inc.tracked {
		out = append(out, tp)
	}
	slices.SortFunc(out, func(a, b *trackedPattern) int { return patternOrder(a.p, b.p) })
	return out
}

// assemble rebuilds the session's Result from the tracked set.
func (inc *Incremental) assemble(elapsed time.Duration) {
	res := &Result{}
	for _, tp := range inc.sortedTracked() {
		res.Stats.Candidates++
		if !tp.frequent {
			res.Stats.Pruned++
			continue
		}
		res.Patterns = append(res.Patterns, FrequentPattern{
			Pattern:     tp.p,
			Support:     tp.support,
			Exact:       tp.exact,
			Occurrences: tp.delta.NumOccurrences(),
			Instances:   tp.delta.NumInstances(),
		})
		res.Stats.Frequent++
	}
	inc.walk.count(&res.Stats)
	res.Stats.Elapsed = elapsed
	res.Stats.Evaluate = inc.evaluate
	res.Stats.Generate = elapsed - inc.evaluate
	inc.result = res
}
