package miner

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
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
	// labels is the label alphabet extensions are generated over; new vertex
	// labels widen it on Refresh.
	labels map[graph.Label]bool
	// seedPairs records the one-edge label pairs already seeded.
	seedPairs map[[2]graph.Label]bool

	// duplicates, extensions and codes accumulate over the session's runs;
	// evaluate is the support-evaluation time of the current run.
	duplicates int
	extensions int
	codes      int
	evaluate   time.Duration

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
}

// NewIncremental starts an incremental mining session: it runs the initial
// mining fixpoint (equivalent to Mine) and retains a live delta context per
// evaluated candidate. The configuration is validated as by New, with two
// extra constraints that make exact delta maintenance possible: the measure
// must be streaming-capable (it is evaluated on live streamed aggregates),
// and MaxOccurrences/MaxPatterns must be zero (truncated enumerations and
// truncated result sets have no well-defined delta).
func NewIncremental(g *graph.Graph, cfg Config) (*Incremental, error) {
	m, err := New(g, cfg)
	if err != nil {
		return nil, err
	}
	cfg = m.Config()
	if !measures.SupportsStreaming(cfg.Measure) {
		return nil, fmt.Errorf("miner: incremental mining requires a streaming-capable measure, %s is not", cfg.Measure.Name())
	}
	if cfg.MaxOccurrences != 0 {
		return nil, fmt.Errorf("miner: incremental mining does not support MaxOccurrences")
	}
	if cfg.MaxPatterns != 0 {
		return nil, fmt.Errorf("miner: incremental mining does not support MaxPatterns")
	}
	inc := &Incremental{
		g:         g,
		cfg:       cfg,
		tracked:   make(map[string]*trackedPattern),
		labels:    make(map[graph.Label]bool),
		seedPairs: make(map[[2]graph.Label]bool),
	}
	for _, l := range g.Labels() {
		inc.labels[l] = true
	}
	// Subscribe before the initial run: mutations applied between the
	// initial enumerations and the first Refresh are then never lost.
	inc.feed = g.Subscribe()
	inc.snap = inc.freeze()

	start := time.Now()
	seeds, err := inc.seedNew(g.Edges())
	if err != nil {
		inc.Close()
		return nil, err
	}
	if err := inc.expand(seeds); err != nil {
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
// enumerated from scratch, once, on their way into the tracked set.
func (inc *Incremental) Refresh() (*Result, error) {
	if inc.closed {
		return nil, fmt.Errorf("miner: Refresh on a closed incremental session")
	}
	muts := inc.feed.Drain()
	if len(muts) == 0 {
		return inc.result, nil
	}
	start := time.Now()
	inc.evaluate = 0

	// Widen the label alphabet first: extension generation below must see
	// labels introduced by this batch.
	labelsGrew := false
	for _, m := range muts {
		if m.Kind == graph.MutVertexAdded && !inc.labels[m.Label] {
			inc.labels[m.Label] = true
			labelsGrew = true
		}
	}

	// Delta-refresh every tracked candidate and collect the boundary
	// patterns that crossed the threshold. The per-candidate refreshes are
	// independent (they read one prepared batch and write their own state),
	// so they fan out across cfg.Parallelism workers; crossings are
	// collected afterwards in the deterministic sorted order, so the
	// frontier is identical to a sequential refresh. inFrontier guards
	// against queueing a pattern twice (a threshold crossing and an alphabet
	// widening in one batch would otherwise both enqueue it).
	var frontier []*trackedPattern
	inFrontier := make(map[string]bool)
	enqueue := func(tp *trackedPattern) {
		if code := tp.p.CanonicalCode(); !inFrontier[code] {
			inFrontier[code] = true
			frontier = append(frontier, tp)
		}
	}
	tracked := inc.sortedTracked()
	wasFrequent := make([]bool, len(tracked))
	for i, tp := range tracked {
		wasFrequent[i] = tp.frequent
	}
	refreshStart := time.Now()
	err := inc.refreshTracked(tracked, muts)
	inc.evaluate += time.Since(refreshStart)
	if err != nil {
		return nil, err
	}
	for i, tp := range tracked {
		if tp.frequent && !wasFrequent[i] {
			enqueue(tp)
		}
	}

	// New one-edge seeds can only come from added edges over unseen label
	// pairs. An edge that was added and then removed (or lost an endpoint)
	// within the same batch seeds nothing: a cold mine of the final graph
	// would not see it either, and its labels may already be gone.
	var newEdges []graph.Edge
	for _, m := range muts {
		if m.Kind == graph.MutEdgeAdded && inc.g.HasEdge(m.U, m.V) {
			newEdges = append(newEdges, graph.Edge{U: m.U, V: m.V})
		}
	}
	seeds, err := inc.seedNew(newEdges)
	if err != nil {
		return nil, err
	}
	for _, tp := range seeds {
		enqueue(tp)
	}

	// A wider alphabet can unlock extensions of patterns that were already
	// frequent, so those must be re-extended too (existing extension codes
	// de-duplicate against the tracked set).
	if labelsGrew {
		for _, tp := range inc.sortedTracked() {
			if tp.frequent {
				enqueue(tp)
			}
		}
	}

	if err := inc.expand(frontier); err != nil {
		return nil, err
	}
	inc.assemble(time.Since(start))
	return inc.result, nil
}

// refreshTracked delta-refreshes and re-evaluates every tracked candidate.
// Everything about the update that does not depend on a pattern — the
// refrozen snapshot, the dirty vertices in both index spaces, the size of each
// side's mutation ball at every radius up to the largest pattern diameter —
// is prepared once, before the fan-out, as a read-only core.Batch. With cfg.Parallelism >= 2 the
// independent applications then run on forEach's worker pool, each mutating
// only its candidate's own state, and the tracked states after a parallel
// refresh are identical to a sequential one: delta maintenance is
// per-candidate exact and the candidates share nothing but the batch.
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
	next := inc.freeze()
	batch := core.NewBatch(inc.snap, next, muts, maxRadius)
	err := forEach(len(tracked), inc.cfg.Parallelism, func(i int) error {
		tp := tracked[i]
		if err := tp.delta.Apply(batch); err != nil {
			return fmt.Errorf("miner: refreshing %s: %w", tp.p, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	inc.snap = next
	return forEach(len(tracked), inc.cfg.Parallelism, func(i int) error {
		return inc.evaluateTracked(tracked[i])
	})
}

// seedNew tracks the one-edge seed pattern of every not-yet-seen label pair
// among the given data edges and returns the newly created candidates.
func (inc *Incremental) seedNew(edges []graph.Edge) ([]*trackedPattern, error) {
	var pairs [][2]graph.Label
	for _, e := range edges {
		la, lb := inc.g.MustLabelOf(e.U), inc.g.MustLabelOf(e.V)
		if la > lb {
			la, lb = lb, la
		}
		key := [2]graph.Label{la, lb}
		if inc.seedPairs[key] {
			continue
		}
		inc.seedPairs[key] = true
		pairs = append(pairs, key)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	var out []*trackedPattern
	for _, pr := range pairs {
		inc.codes++
		tp, err := inc.track(pattern.SingleEdge(pr[0], pr[1]))
		if err != nil {
			return nil, err
		}
		if tp != nil {
			out = append(out, tp)
		}
	}
	return out, nil
}

// expand runs the mining fixpoint from the given frontier: every frequent
// frontier pattern is extended over the current alphabet (the empty one once
// it is at the size cap, as in Mine), unseen extension codes are tracked and
// evaluated (the only cold enumerations in the session), and newly tracked
// frequent patterns join the next wave.
func (inc *Incremental) expand(frontier []*trackedPattern) error {
	labels := inc.labelList()
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return trackedLess(frontier[i], frontier[j]) })
		var next []*trackedPattern
		for _, tp := range frontier {
			if !tp.frequent {
				continue
			}
			alphabet := growthAlphabet(tp.p, labels, inc.cfg.MaxPatternSize)
			inc.codes += tp.p.GrowSteps(len(alphabet))
			for _, ext := range tp.p.Extend(alphabet) {
				inc.extensions++
				grown, err := inc.track(ext.Result)
				if err != nil {
					return err
				}
				if grown != nil {
					next = append(next, grown)
				}
			}
		}
		frontier = next
	}
	return nil
}

// track adds a new candidate to the tracked set: it builds the candidate's
// live delta context and evaluates it. A candidate whose canonical code is
// already tracked is counted as a duplicate instead, and nil is returned.
func (inc *Incremental) track(p *pattern.Pattern) (*trackedPattern, error) {
	code := p.CanonicalCode()
	if _, ok := inc.tracked[code]; ok {
		inc.duplicates++
		return nil, nil
	}
	start := time.Now()
	defer func() { inc.evaluate += time.Since(start) }()
	// The context's enumeration parallelism is deliberately not throttled
	// under candidate-level Parallelism (unlike Miner.evaluate): track runs
	// only on the session goroutine — cold builds are the expensive
	// enumerations and deserve the full machine — and it is the cold builds
	// alone the setting reaches: the delta passes that do run concurrently
	// are searches pinned at the batch's dirty vertices, which run on the
	// goroutine that applies the batch by construction. The context is built
	// on the session's snapshot and subscribes to nothing; refreshTracked
	// feeds it.
	d, err := core.NewDeltaContextAt(inc.g, inc.snap, p, core.Options{Parallelism: inc.cfg.EnumParallelism})
	if err != nil {
		return nil, fmt.Errorf("miner: building delta context for %s: %w", p, err)
	}
	tp := &trackedPattern{p: p, delta: d}
	if err := inc.evaluateTracked(tp); err != nil {
		return nil, err
	}
	inc.tracked[code] = tp
	return tp, nil
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
	sort.Slice(out, func(i, j int) bool { return trackedLess(out[i], out[j]) })
	return out
}

// trackedLess orders candidates by edge count, then canonical code.
func trackedLess(a, b *trackedPattern) bool {
	if na, nb := a.p.NumEdges(), b.p.NumEdges(); na != nb {
		return na < nb
	}
	return a.p.CanonicalCode() < b.p.CanonicalCode()
}

// labelList returns the session's alphabet as a sorted slice.
func (inc *Incremental) labelList() []graph.Label {
	out := make([]graph.Label, 0, len(inc.labels))
	for l := range inc.labels {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	res.Stats.Duplicates = inc.duplicates
	res.Stats.Extensions = inc.extensions
	res.Stats.Codes = inc.codes
	res.Stats.Elapsed = elapsed
	res.Stats.Evaluate = inc.evaluate
	res.Stats.Generate = elapsed - inc.evaluate
	inc.result = res
}
