package miner_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/miner"
)

// requireSameMining asserts that an incremental session's result matches a
// from-scratch Mine of the same graph: same patterns in the same order, with
// identical supports and raw counts.
func requireSameMining(t *testing.T, got, want *miner.Result, tag string) {
	t.Helper()
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("%s: incremental found %d frequent patterns, fresh mine found %d", tag, len(got.Patterns), len(want.Patterns))
	}
	for i := range want.Patterns {
		g, w := got.Patterns[i], want.Patterns[i]
		if g.Pattern.CanonicalCode() != w.Pattern.CanonicalCode() {
			t.Fatalf("%s: pattern %d differs: %s vs %s", tag, i, g.Pattern, w.Pattern)
		}
		if g.Support != w.Support || g.Exact != w.Exact || g.Occurrences != w.Occurrences || g.Instances != w.Instances {
			t.Fatalf("%s: pattern %d (%s): got support=%v exact=%v occ=%d inst=%d, want support=%v exact=%v occ=%d inst=%d",
				tag, i, g.Pattern, g.Support, g.Exact, g.Occurrences, g.Instances, w.Support, w.Exact, w.Occurrences, w.Instances)
		}
	}
}

func freshMine(t *testing.T, g *graph.Graph, cfg miner.Config) *miner.Result {
	t.Helper()
	m, err := miner.New(g.Clone(), cfg)
	if err != nil {
		t.Fatalf("miner.New: %v", err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	return res
}

// TestIncrementalMatchesFreshMine drives an incremental session through
// mutation batches and checks after every Refresh that the answers are
// identical to re-mining the mutated graph from scratch — including batches
// that push boundary patterns over the threshold and batches that introduce
// brand-new labels (both forcing the session to expand its tracked set).
func TestIncrementalMatchesFreshMine(t *testing.T) {
	cfg := miner.Config{MinSupport: 4, MaxPatternSize: 4, EnumParallelism: 1}
	g := gen.BarabasiAlbert(90, 2, gen.UniformLabels{K: 3}, 7)

	inc, err := miner.NewIncremental(g, cfg)
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	defer inc.Close()
	requireSameMining(t, inc.Result(), freshMine(t, g, cfg), "initial")
	if inc.TrackedPatterns() <= len(inc.Result().Patterns) {
		t.Fatalf("session tracks %d patterns but reports %d frequent; the pruned boundary should be tracked too",
			inc.TrackedPatterns(), len(inc.Result().Patterns))
	}

	// Batch 1: densify around existing vertices so boundary patterns gain
	// support.
	ids := g.SortedVertices()
	for step := 0; step < 6; step++ {
		u, v := ids[step*3], ids[step*11+7]
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	res, err := inc.Refresh()
	if err != nil {
		t.Fatalf("Refresh (densify): %v", err)
	}
	requireSameMining(t, res, freshMine(t, g, cfg), "densify")

	// Batch 2: a brand-new label arrives with enough copies to be frequent,
	// requiring new seeds and extensions over a wider alphabet.
	next := graph.VertexID(10_000)
	for i := 0; i < 8; i++ {
		g.MustAddVertex(next, 9)
		g.MustAddEdge(next, ids[i*5])
		next++
	}
	res, err = inc.Refresh()
	if err != nil {
		t.Fatalf("Refresh (new label): %v", err)
	}
	requireSameMining(t, res, freshMine(t, g, cfg), "new label")

	// Batch 3: nothing pending — Refresh is a cached no-op.
	before := inc.Result()
	res, err = inc.Refresh()
	if err != nil {
		t.Fatalf("Refresh (no-op): %v", err)
	}
	if res != before {
		t.Fatal("no-op Refresh rebuilt the result instead of returning the cached one")
	}
}

// TestIncrementalParallelRefreshMatchesSequential drives two sessions over
// the same mutation batches — one refreshing its tracked candidates
// sequentially, one fanning the refreshes across four workers — and checks
// both stay identical to a fresh mine of the mutated graph. Run under -race
// in CI, this also pins that the parallel refresh shares nothing but the
// immutable snapshot.
func TestIncrementalParallelRefreshMatchesSequential(t *testing.T) {
	seqCfg := miner.Config{MinSupport: 4, MaxPatternSize: 4, EnumParallelism: 1}
	parCfg := miner.Config{MinSupport: 4, MaxPatternSize: 4, Parallelism: 4}

	gSeq := gen.BarabasiAlbert(90, 2, gen.UniformLabels{K: 3}, 7)
	gPar := gSeq.Clone()

	seq, err := miner.NewIncremental(gSeq, seqCfg)
	if err != nil {
		t.Fatalf("NewIncremental (sequential): %v", err)
	}
	defer seq.Close()
	par, err := miner.NewIncremental(gPar, parCfg)
	if err != nil {
		t.Fatalf("NewIncremental (parallel): %v", err)
	}
	defer par.Close()
	requireSameMining(t, par.Result(), seq.Result(), "initial")

	for batch := 0; batch < 3; batch++ {
		ids := gSeq.SortedVertices()
		for step := 0; step < 5; step++ {
			u, v := ids[(batch*17+step*3)%len(ids)], ids[(step*11+7)%len(ids)]
			if u != v && !gSeq.HasEdge(u, v) {
				gSeq.MustAddEdge(u, v)
				gPar.MustAddEdge(u, v)
			}
		}
		want, err := seq.Refresh()
		if err != nil {
			t.Fatalf("batch %d: sequential Refresh: %v", batch, err)
		}
		got, err := par.Refresh()
		if err != nil {
			t.Fatalf("batch %d: parallel Refresh: %v", batch, err)
		}
		requireSameMining(t, got, want, "parallel refresh batch")
		requireSameMining(t, got, freshMine(t, gPar, seqCfg), "parallel vs fresh")
		if seq.TrackedPatterns() != par.TrackedPatterns() {
			t.Fatalf("batch %d: tracked sets diverged: %d vs %d", batch, seq.TrackedPatterns(), par.TrackedPatterns())
		}
	}
}

// failingMNI is MNI that fails its second evaluation after being armed, once.
type failingMNI struct {
	measures.MNI
	countdown *atomic.Int32
}

func (f failingMNI) Compute(ctx *core.Context) (measures.Result, error) {
	if f.countdown.Add(-1) == 0 {
		return measures.Result{}, errors.New("injected measure failure")
	}
	return f.MNI.Compute(ctx)
}

// TestIncrementalSurvivesMeasureError pins what a failed Refresh leaves
// behind: every tracked context on the batch's new snapshot, so the session
// keeps refreshing. The failing batch adds an edge and removes it again —
// mutations to apply, no support to move — and the measure fails on the
// second candidate, with most of the tracked set still to come.
func TestIncrementalSurvivesMeasureError(t *testing.T) {
	for _, par := range []int{1, 4} {
		countdown := new(atomic.Int32)
		cfg := miner.Config{MinSupport: 4, MaxPatternSize: 4, Parallelism: par, Measure: failingMNI{countdown: countdown}}
		g := gen.BarabasiAlbert(90, 2, gen.UniformLabels{K: 3}, 7)
		inc, err := miner.NewIncremental(g, cfg)
		if err != nil {
			t.Fatalf("NewIncremental: %v", err)
		}
		defer inc.Close()
		if inc.TrackedPatterns() < 4 {
			t.Fatalf("session tracks %d patterns; too few to strand any", inc.TrackedPatterns())
		}

		ids := g.SortedVertices()
		u, v := ids[3], ids[40]
		if g.HasEdge(u, v) {
			t.Fatalf("edge %d-%d already present; pick another pair", u, v)
		}
		g.MustAddEdge(u, v)
		if err := g.RemoveEdge(u, v); err != nil {
			t.Fatal(err)
		}
		countdown.Store(2)
		if _, err := inc.Refresh(); err == nil {
			t.Fatalf("Parallelism %d: Refresh swallowed the measure's error", par)
		}

		for step := 0; step < 6; step++ {
			if u, v := ids[step*3], ids[step*11+7]; u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		res, err := inc.Refresh()
		if err != nil {
			t.Fatalf("Parallelism %d: Refresh after a failed one: %v", par, err)
		}
		requireSameMining(t, res, freshMine(t, g, miner.Config{MinSupport: 4, MaxPatternSize: 4}), "after a failed refresh")
	}
}

// TestIncrementalRejectsUnsupportedConfigs pins the constructor contract.
func TestIncrementalRejectsUnsupportedConfigs(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, gen.UniformLabels{K: 2}, 1)
	cases := []miner.Config{
		{MinSupport: 2, Measure: measures.MVC{}}, // not streaming-capable
		{MinSupport: 2, MaxOccurrences: 100},     // truncated enumeration
		{MinSupport: 2, MaxPatterns: 5},          // truncated result set
		{MinSupport: 0},                          // invalid threshold (via New)
	}
	for i, cfg := range cases {
		if _, err := miner.NewIncremental(g, cfg); err == nil {
			t.Fatalf("case %d: NewIncremental accepted %+v", i, cfg)
		}
	}
}
