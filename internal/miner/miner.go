// Package miner implements a single-graph frequent subgraph miner in the
// style of GraMi / SIGRAM: starting from frequent one-edge patterns it grows
// candidates by adding edges or vertices, de-duplicates candidates by
// canonical code, evaluates a pluggable support measure, and prunes every
// branch whose support falls below the threshold. Because all measures in
// this library are anti-monotonic, pruning is safe: no frequent pattern is
// missed (the central argument of Chapter 2).
//
// Under MNI the miner uses anti-monotonicity node by node as well: a level is
// searched inside the level below it. The MNI domains of the previous level's
// frequent patterns, kept per canonical place, bound the domains of every
// candidate built on them, so a candidate is confined to their intersection,
// or shown infrequent without a search when a sub-pattern is not frequent or
// an intersection is too small (Miner.Mine, Stats.Unsearched). Results and
// counts are the unconfined walk's.
package miner

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
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
	// Codes is the number of canonical codes computed for the search: one
	// per one-edge seed and one per grow step Extend generated, including
	// the steps it de-duplicated away (pattern.GrowSteps).
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
// one-edge-smaller sub-patterns (pattern.SubPatterns), so a candidate node's
// MNI domain lies inside the domain of every sub-pattern node it becomes. The miner keeps, for the
// previous level's frequent patterns only, one domain per canonical place as
// a bitset over the snapshot's dense indexes (core.NewDomainContext). A
// candidate with a sub-pattern outside that table has an infrequent
// sub-pattern — the walk finds every frequent pattern of a level — and is
// infrequent too. A candidate whose intersected domains leave some node
// fewer than MinSupport vertices has MNI below MinSupport. Both are pruned
// without a search (Stats.Unsearched). Every other candidate is searched
// confined to the intersections (isomorph.Options.Masks), which drop only
// vertices no occurrence uses: supports, counts and Stats are what an
// unconfined search gives.
func (m *Miner) Mine() (*Result, error) { return m.MineContext(context.Background()) }

// MineContext is Mine under ctx: the miner checks ctx between candidates,
// never inside a search, and once it is done returns its error instead of a
// result.
func (m *Miner) MineContext(ctx context.Context) (*Result, error) {
	start := time.Now()
	res := &Result{}
	// finish closes the clocks: whatever was not evaluation was generation.
	finish := func() *Result {
		res.Stats.Elapsed = time.Since(start)
		res.Stats.Generate = res.Stats.Elapsed - res.Stats.Evaluate
		return res
	}
	// admit de-duplicates candidates by canonical code.
	seen := make(map[string]bool)
	admit := func(p *pattern.Pattern) bool {
		code := p.CanonicalCode()
		if seen[code] {
			res.Stats.Duplicates++
			return false
		}
		seen[code] = true
		return true
	}

	// Seed: all one-edge patterns over label pairs that actually occur.
	var frontier []*pattern.Pattern
	for _, p := range m.seedPatterns() {
		res.Stats.Codes++
		if admit(p) {
			frontier = append(frontier, p)
		}
	}
	sortByCode(frontier)

	labels := m.snap.Labels()
	// known is the level table: the previous level's frequent patterns by
	// canonical code, each with its MNI domain per canonical place. It is nil
	// for the seeds, which have no level below them, and without the lattice
	// rule.
	var known map[string][]isomorph.Mask

	for len(frontier) > 0 {
		evalStart := time.Now()
		evaluations, err := m.evaluateLevel(ctx, frontier, known)
		res.Stats.Evaluate += time.Since(evalStart)
		if err != nil {
			return nil, err
		}
		var next []*pattern.Pattern
		var nextKnown map[string][]isomorph.Mask
		if m.lattice {
			nextKnown = make(map[string][]isomorph.Mask)
		}
		for i, p := range frontier {
			if m.cfg.MaxPatterns > 0 && res.Stats.Frequent >= m.cfg.MaxPatterns {
				return finish(), nil
			}
			ev := evaluations[i]
			res.Stats.Candidates++
			if !ev.frequent {
				res.Stats.Pruned++
				if ev.unsearched {
					res.Stats.Unsearched++
				}
				continue
			}
			res.Patterns = append(res.Patterns, ev.fp)
			res.Stats.Frequent++
			if nextKnown != nil {
				nextKnown[p.CanonicalCode()] = byPlace(p, ev.domains)
			}

			alphabet := growthAlphabet(p, labels, m.cfg.MaxPatternSize)
			res.Stats.Codes += p.GrowSteps(len(alphabet))
			for _, ext := range p.Extend(alphabet) {
				res.Stats.Extensions++
				if admit(ext.Result) {
					next = append(next, ext.Result)
				}
			}
		}
		sortByCode(next)
		frontier, known = next, nextKnown
	}
	return finish(), nil
}

// byPlace reorders a pattern's per-position domains by canonical place, the
// naming every pattern isomorphic to p shares (pattern.CanonicalOrder).
func byPlace(p *pattern.Pattern, domains []isomorph.Mask) []isomorph.Mask {
	order := p.CanonicalOrder()
	rows := make([]isomorph.Mask, len(order))
	for a, pos := range order {
		rows[a] = domains[pos]
	}
	return rows
}

// inherit confines p's search to its sub-patterns' domains (subDomains). It
// reports false — p is below the threshold, without a search — when a
// sub-pattern is not known, or when an intersection holds fewer than
// MinSupport vertices.
func (m *Miner) inherit(p *pattern.Pattern, known map[string][]isomorph.Mask) ([]isomorph.Mask, bool) {
	masks, complete := subDomains(p, known)
	if !complete {
		return nil, false
	}
	for _, mask := range masks {
		if mask != nil && float64(mask.Count()) < m.cfg.MinSupport {
			return nil, false
		}
	}
	return masks, true
}

// subDomains returns, aligned with p.Nodes(), the intersection of the known
// domains of the places every position of p takes in p's connected
// one-edge-smaller sub-patterns — nil for a position that no known
// sub-pattern places — and whether every sub-pattern was known. known maps a
// canonical code to its domains by canonical place (byPlace), all over one
// snapshot; each intersection holds the position's image in every occurrence
// of p on it.
func subDomains(p *pattern.Pattern, known map[string][]isomorph.Mask) (masks []isomorph.Mask, complete bool) {
	masks = make([]isomorph.Mask, p.Size())
	complete = true
	for _, sub := range p.SubPatterns() {
		rows, ok := known[sub.Code]
		if !ok {
			complete = false
			continue
		}
		for a, pos := range sub.Places {
			if masks[pos] == nil {
				masks[pos] = slices.Clone(rows[a])
			} else {
				masks[pos].Intersect(rows[a])
			}
		}
	}
	return masks, complete
}

// growthAlphabet is the alphabet p is extended over. The size cap limits the
// number of pattern nodes, so a pattern already at the cap gets the empty
// alphabet: its vertex extensions are never generated, while its internal
// edge extensions (which keep the node count) are still explored so that
// dense shapes like triangles are reachable.
func growthAlphabet(p *pattern.Pattern, labels []graph.Label, maxSize int) []graph.Label {
	if p.Size() >= maxSize {
		return nil
	}
	return labels
}

// sortByCode orders one search level by canonical code, which every pattern
// reaching a level already holds.
func sortByCode(level []*pattern.Pattern) {
	sort.Slice(level, func(i, j int) bool { return level[i].CanonicalCode() < level[j].CanonicalCode() })
}

// levelEval is the outcome of evaluating one candidate of a search level.
type levelEval struct {
	fp       FrequentPattern
	frequent bool
	// unsearched marks a candidate pruned without a search.
	unsearched bool
	// domains holds, under the lattice rule, the MNI domain of every position
	// of a searched candidate.
	domains []isomorph.Mask
}

// evaluateLevel computes the configured support measure for every candidate
// of one search level, fanning the independent evaluations out across
// cfg.Parallelism worker goroutines when asked to, and checking ctx before
// each. known is the level table (see Mine). The returned slice is
// aligned with the input slice.
func (m *Miner) evaluateLevel(ctx context.Context, level []*pattern.Pattern, known map[string][]isomorph.Mask) ([]levelEval, error) {
	results := make([]levelEval, len(level))
	err := forEach(len(level), m.cfg.Parallelism, func(i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("miner: %w", err)
		}
		ev, err := m.evaluate(level[i], known)
		if err != nil {
			return err
		}
		results[i] = ev
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
// the lattice rule it first confines the candidate to what known says of its
// sub-patterns, which may settle it without a search, and returns the
// domains of a searched candidate.
func (m *Miner) evaluate(p *pattern.Pattern, known map[string][]isomorph.Mask) (levelEval, error) {
	enumPar := m.cfg.EnumParallelism
	if enumPar == 0 && m.cfg.Parallelism > 1 {
		// Candidate evaluations already run concurrently; auto-expanding
		// the per-candidate enumeration on top would oversubscribe the
		// machine with Parallelism x GOMAXPROCS workers.
		enumPar = 1
	}
	var ev levelEval
	var ctx *core.Context
	if m.lattice {
		var masks []isomorph.Mask
		if known != nil {
			var ok bool
			if masks, ok = m.inherit(p, known); !ok {
				return levelEval{unsearched: true}, nil
			}
		}
		ctx, ev.domains = core.NewDomainContext(m.snap, p, enumPar, masks)
	} else {
		var err error
		ctx, err = core.NewContext(nil, p, core.Options{
			Parallelism: enumPar,
			Streaming:   m.streaming,
			Snapshot:    m.snap,
		})
		if err != nil {
			return levelEval{}, fmt.Errorf("miner: building context for %s: %w", p, err)
		}
	}
	r, err := m.cfg.Measure.Compute(ctx)
	if err != nil {
		return levelEval{}, fmt.Errorf("miner: computing %s for %s: %w", m.cfg.Measure.Name(), p, err)
	}
	ev.fp = FrequentPattern{
		Pattern:     p,
		Support:     r.Value,
		Exact:       r.Exact,
		Occurrences: ctx.NumOccurrences(),
		Instances:   ctx.NumInstances(),
	}
	ev.frequent = r.Value >= m.cfg.MinSupport
	return ev, nil
}

// seedPatterns returns the one-edge patterns for every ordered label pair
// that appears on at least one data edge (seedPairs).
func (m *Miner) seedPatterns() []*pattern.Pattern {
	pairs := seedPairs(m.snap)
	out := make([]*pattern.Pattern, 0, len(pairs))
	for _, pr := range pairs {
		out = append(out, pattern.SingleEdge(pr[0], pr[1]))
	}
	return out
}

// seedPairs returns, sorted, every label pair (smaller label first) that
// appears on at least one edge of snap, collected in one pass over the CSR
// adjacency (visiting each undirected edge once, from its smaller endpoint).
func seedPairs(snap *graph.Snapshot) [][2]graph.Label {
	seen := make(map[[2]graph.Label]bool)
	for i := int32(0); i < int32(snap.NumVertices()); i++ {
		la := snap.LabelAt(i)
		for _, j := range snap.NeighborsAt(i) {
			if j > i {
				seen[labelPair(la, snap.LabelAt(j))] = true
			}
		}
	}
	pairs := make([][2]graph.Label, 0, len(seen))
	for pr := range seen {
		pairs = append(pairs, pr)
	}
	slices.SortFunc(pairs, comparePairs)
	return pairs
}

// labelPair returns the label pair of an edge whose endpoints carry a and b,
// smaller label first.
func labelPair(a, b graph.Label) [2]graph.Label {
	if a > b {
		a, b = b, a
	}
	return [2]graph.Label{a, b}
}

// comparePairs orders label pairs by first label, then second.
func comparePairs(a, b [2]graph.Label) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}
