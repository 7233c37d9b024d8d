package miner_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/miner"
	"repro/internal/pattern"
)

func TestNewValidation(t *testing.T) {
	g := gen.ErdosRenyi(10, 0.2, gen.UniformLabels{K: 2}, 1)
	if _, err := miner.New(nil, miner.Config{MinSupport: 1}); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := miner.New(g, miner.Config{MinSupport: 0}); err == nil {
		t.Error("zero threshold should error")
	}
	if _, err := miner.New(g, miner.Config{MinSupport: 1, MaxPatternSize: 1}); err == nil {
		t.Error("MaxPatternSize below 2 should error")
	}
	if _, err := miner.New(g, miner.Config{MinSupport: 1}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMineFigure6(t *testing.T) {
	// Figure 6 has a single edge shape A-B with MNI 4 and MVC 2. With
	// threshold 3, MNI-driven mining keeps the edge pattern frequent while
	// MVC-driven mining prunes it.
	fig := dataset.Figure6()

	mniMiner, err := miner.New(fig.Graph, miner.Config{MinSupport: 3, Measure: measures.MNI{}, MaxPatternSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	mniRes, err := mniMiner.Mine()
	if err != nil {
		t.Fatal(err)
	}
	if mniRes.Stats.Frequent == 0 {
		t.Error("MNI mining at threshold 3 should report the A-B edge as frequent")
	}

	mvcMiner, err := miner.New(fig.Graph, miner.Config{MinSupport: 3, Measure: measures.MVC{}, MaxPatternSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	mvcRes, err := mvcMiner.Mine()
	if err != nil {
		t.Fatal(err)
	}
	if mvcRes.Stats.Frequent != 0 {
		t.Errorf("MVC mining at threshold 3 should prune everything, got %d frequent patterns", mvcRes.Stats.Frequent)
	}
	if mvcRes.Stats.Pruned == 0 {
		t.Error("pruning statistics should record the pruned seeds")
	}
}

// contextSpy wraps a measure and records which kind of context the miner
// handed it. Streaming support is decided by canonical name, so the spy
// inherits it when it keeps the wrapped name and loses it under any other.
type contextSpy struct {
	measures.Measure
	name                   string
	streamed, materialized *int
}

func (s contextSpy) Name() string { return s.name }

func (s contextSpy) Compute(ctx *core.Context) (measures.Result, error) {
	if ctx.Materialized() {
		*s.materialized++
	} else {
		*s.streamed++
	}
	return s.Measure.Compute(ctx)
}

// TestStreamingAutoSelected checks that the context kind is derived from the
// measure alone: a streaming-capable measure (MNI) only ever sees streamed
// contexts, the same computation under a name outside the streaming set only
// ever sees materialized ones, and both runs report exactly the same frequent
// patterns.
func TestStreamingAutoSelected(t *testing.T) {
	g := gen.BarabasiAlbert(45, 2, gen.UniformLabels{K: 2}, 5)

	mine := func(name string) (res *miner.Result, streamed, materialized int) {
		t.Helper()
		spy := contextSpy{Measure: measures.MNI{}, name: name, streamed: &streamed, materialized: &materialized}
		m, err := miner.New(g, miner.Config{MinSupport: 3, Measure: spy})
		if err != nil {
			t.Fatal(err)
		}
		if res, err = m.Mine(); err != nil {
			t.Fatal(err)
		}
		return res, streamed, materialized
	}

	autoRes, streamed, materialized := mine(measures.NameMNI)
	if streamed == 0 || materialized != 0 {
		t.Errorf("MNI mining saw %d streamed and %d materialized contexts, want streamed only", streamed, materialized)
	}
	matRes, streamed, materialized := mine("MNI-on-materialized")
	if streamed != 0 || materialized == 0 {
		t.Errorf("a non-streaming measure saw %d streamed and %d materialized contexts, want materialized only", streamed, materialized)
	}

	if len(autoRes.Patterns) != len(matRes.Patterns) {
		t.Fatalf("streaming found %d patterns, materialized %d", len(autoRes.Patterns), len(matRes.Patterns))
	}
	for i := range autoRes.Patterns {
		a, m := autoRes.Patterns[i], matRes.Patterns[i]
		if a.Pattern.CanonicalCode() != m.Pattern.CanonicalCode() || a.Support != m.Support ||
			a.Occurrences != m.Occurrences || a.Instances != m.Instances {
			t.Fatalf("pattern %d differs between streaming and materialized runs: %+v vs %+v", i, a, m)
		}
	}
}

func TestMineDefaultsAndStats(t *testing.T) {
	g := gen.BarabasiAlbert(45, 2, gen.UniformLabels{K: 2}, 5)
	m, err := miner.New(g, miner.Config{MinSupport: 3}) // default measure MNI, default size cap
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Frequent != len(res.Patterns) {
		t.Errorf("stats.Frequent = %d but %d patterns returned", res.Stats.Frequent, len(res.Patterns))
	}
	if res.Stats.Candidates < res.Stats.Frequent {
		t.Errorf("candidates %d < frequent %d", res.Stats.Candidates, res.Stats.Frequent)
	}
	if res.Stats.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
	for _, fp := range res.Patterns {
		if fp.Support < 3 {
			t.Errorf("reported pattern below threshold: %+v", fp)
		}
		if fp.Pattern.Size() > miner.DefaultMaxPatternSize {
			t.Errorf("pattern exceeds the size cap: %v", fp.Pattern)
		}
		if fp.Occurrences < fp.Instances {
			t.Errorf("occurrences %d < instances %d", fp.Occurrences, fp.Instances)
		}
	}
	// Results are reported in breadth-first order: every grow step adds one
	// edge, so the edge count is non-decreasing across the result list.
	for i := 1; i < len(res.Patterns); i++ {
		if res.Patterns[i].Pattern.NumEdges() < res.Patterns[i-1].Pattern.NumEdges() {
			t.Error("patterns not reported in breadth-first (edge count) order")
			break
		}
	}
	// No two reported patterns are isomorphic.
	codes := make(map[string]bool)
	for _, fp := range res.Patterns {
		code := fp.Pattern.CanonicalCode()
		if codes[code] {
			t.Errorf("duplicate pattern reported: %s", code)
		}
		codes[code] = true
	}
}

func TestMineThresholdMonotonicity(t *testing.T) {
	// Raising the threshold can only shrink the result set (for a fixed
	// anti-monotonic measure).
	g := gen.BarabasiAlbert(50, 2, gen.UniformLabels{K: 2}, 8)
	counts := make([]int, 0, 3)
	for _, th := range []float64{2, 4, 8} {
		m, err := miner.New(g, miner.Config{MinSupport: th, MaxPatternSize: 3, Measure: measures.MI{}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Mine()
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Stats.Frequent)
	}
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Errorf("frequent pattern counts should be non-increasing in the threshold: %v", counts)
	}
}

func TestMineMaxPatterns(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, gen.UniformLabels{K: 3}, 2)
	m, err := miner.New(g, miner.Config{MinSupport: 2, MaxPatterns: 3, MaxPatternSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 3 {
		t.Errorf("MaxPatterns not honored: got %d", len(res.Patterns))
	}
}

func TestMineSupersetSupportNeverExceedsSubpattern(t *testing.T) {
	// For an anti-monotonic measure, every reported pattern with k+1 nodes
	// must have support less than or equal to the maximum support among
	// reported patterns with k nodes (its parent is among them because the
	// search is breadth-first and the parent is frequent too).
	g := gen.CliqueChain(4, 4, 3)
	m, err := miner.New(g, miner.Config{MinSupport: 1, MaxPatternSize: 4, Measure: measures.MVC{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatal(err)
	}
	maxBySize := make(map[int]float64)
	for _, fp := range res.Patterns {
		if fp.Support > maxBySize[fp.Pattern.Size()] {
			maxBySize[fp.Pattern.Size()] = fp.Support
		}
	}
	for size := 3; size <= 4; size++ {
		if maxBySize[size] == 0 {
			continue
		}
		if maxBySize[size] > maxBySize[size-1] {
			t.Errorf("max support of size-%d patterns (%v) exceeds size-%d (%v)",
				size, maxBySize[size], size-1, maxBySize[size-1])
		}
	}
}

func TestMineOnGraphWithoutEdges(t *testing.T) {
	g := graph.New("edgeless")
	g.MustAddVertex(1, 1)
	g.MustAddVertex(2, 1)
	m, err := miner.New(g, miner.Config{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 || res.Stats.Candidates != 0 {
		t.Errorf("edgeless graph should produce no candidates, got %+v", res.Stats)
	}
}

func TestMinedSupportsMatchDirectEvaluation(t *testing.T) {
	// The support reported by the miner must equal the support computed
	// directly through the measures package for the same pattern.
	fig := dataset.Figure2()
	m, err := miner.New(fig.Graph, miner.Config{MinSupport: 1, MaxPatternSize: 3, Measure: measures.MI{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("expected at least the single-edge pattern to be frequent")
	}
	for _, fp := range res.Patterns {
		direct, err := measures.CheckAntiMonotonicity(fig.Graph, fp.Pattern, fp.Pattern, measures.MI{})
		if err != nil {
			t.Fatal(err)
		}
		if direct.SubValue != fp.Support {
			t.Errorf("miner support %v differs from direct evaluation %v for %s",
				fp.Support, direct.SubValue, fp.Pattern)
		}
	}
	// A triangle must be among the frequent patterns (it has MI support 1).
	foundTriangle := false
	triangle := pattern.MustNew(graph.NewBuilder("t").Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild())
	for _, fp := range res.Patterns {
		if fp.Pattern.IsIsomorphicTo(triangle) {
			foundTriangle = true
			if fp.Support != 1 {
				t.Errorf("triangle support = %v, want 1", fp.Support)
			}
		}
	}
	if !foundTriangle {
		t.Error("triangle pattern not found among frequent patterns")
	}
}

func TestParallelMiningMatchesSequential(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, gen.UniformLabels{K: 2}, 13)
	run := func(parallelism int) *miner.Result {
		m, err := miner.New(g, miner.Config{
			MinSupport:     3,
			MaxPatternSize: 3,
			Measure:        measures.MI{},
			Parallelism:    parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Mine()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sequential := run(0)
	parallel := run(4)
	if len(sequential.Patterns) != len(parallel.Patterns) {
		t.Fatalf("parallel run found %d patterns, sequential %d",
			len(parallel.Patterns), len(sequential.Patterns))
	}
	for i := range sequential.Patterns {
		s, p := sequential.Patterns[i], parallel.Patterns[i]
		if s.Support != p.Support || !s.Pattern.IsIsomorphicTo(p.Pattern) {
			t.Errorf("result %d differs: sequential %v/%v vs parallel %v/%v",
				i, s.Pattern, s.Support, p.Pattern, p.Support)
		}
	}
	if sequential.Stats.Frequent != parallel.Stats.Frequent ||
		sequential.Stats.Pruned != parallel.Stats.Pruned ||
		sequential.Stats.Candidates != parallel.Stats.Candidates {
		t.Errorf("stats differ: %+v vs %+v", sequential.Stats, parallel.Stats)
	}
}

// TestMineStatsOpenTheSearch pins the generation-side counts: they do not
// depend on the parallelism, every admitted or duplicate candidate is a seed
// or an extension, a pattern at the size cap generates no vertex steps, the
// two clocks add up to the run, and a warm session counts as a cold mine.
func TestMineStatsOpenTheSearch(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, gen.UniformLabels{K: 3}, 13)
	seeds := make(map[[2]graph.Label]bool)
	for _, e := range g.Edges() {
		a, b := g.MustLabelOf(e.U), g.MustLabelOf(e.V)
		if a > b {
			a, b = b, a
		}
		seeds[[2]graph.Label{a, b}] = true
	}
	mine := func(cfg miner.Config) miner.Stats {
		m, err := miner.New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Mine()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}

	cfg := miner.Config{MinSupport: 3, MaxPatternSize: 4}
	st := mine(cfg)
	if st.Candidates+st.Duplicates != len(seeds)+st.Extensions {
		t.Errorf("candidates %d + duplicates %d != seeds %d + extensions %d", st.Candidates, st.Duplicates, len(seeds), st.Extensions)
	}
	if st.Extensions == 0 || st.Codes <= len(seeds)+st.Extensions {
		t.Errorf("extensions %d, codes %d: Extend should have de-duplicated some of the steps it coded", st.Extensions, st.Codes)
	}
	if st.Evaluate <= 0 || st.Generate <= 0 || st.Generate+st.Evaluate != st.Elapsed {
		t.Errorf("generate %v + evaluate %v should split elapsed %v", st.Generate, st.Evaluate, st.Elapsed)
	}

	parCfg := cfg
	parCfg.Parallelism = 4
	if par := mine(parCfg); par.Extensions != st.Extensions || par.Codes != st.Codes || par.Duplicates != st.Duplicates {
		t.Errorf("counts depend on parallelism: %+v vs %+v", par, st)
	}

	// Two-node patterns at a cap of two have no free node pair and get the
	// empty alphabet: nothing is generated beyond the seeds.
	if capped := mine(miner.Config{MinSupport: 3, MaxPatternSize: 2}); capped.Extensions != 0 || capped.Codes != len(seeds) {
		t.Errorf("at the size cap: extensions %d, codes %d, want 0 and %d", capped.Extensions, capped.Codes, len(seeds))
	}

	inc, err := miner.NewIncremental(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	if warm := inc.Result().Stats; warm.Extensions != st.Extensions || warm.Codes != st.Codes || warm.Duplicates != st.Duplicates ||
		warm.Generate+warm.Evaluate != warm.Elapsed {
		t.Errorf("session counts %+v differ from the cold mine's %+v", warm, st)
	}
}
