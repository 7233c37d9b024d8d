package miner_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/miner"
	"repro/internal/pattern"
)

// referenceMine is the level walk with nothing inherited: every admitted
// candidate is evaluated with a plain core.NewContext over the whole graph.
// It is what Mine computed before a level was searched inside the level below
// it, kept as the oracle of FuzzMineMatchesReference.
func referenceMine(t *testing.T, g *graph.Graph, cfg miner.Config) *miner.Result {
	t.Helper()
	res := &miner.Result{}
	seen := make(map[string]bool)
	admit := func(p *pattern.Pattern) bool {
		if seen[p.CanonicalCode()] {
			res.Stats.Duplicates++
			return false
		}
		seen[p.CanonicalCode()] = true
		return true
	}
	byCode := func(level []*pattern.Pattern) {
		sort.Slice(level, func(i, j int) bool { return level[i].CanonicalCode() < level[j].CanonicalCode() })
	}

	pairs := make(map[[2]graph.Label]bool)
	for _, e := range g.Edges() {
		a, b := g.MustLabelOf(e.U), g.MustLabelOf(e.V)
		if a > b {
			a, b = b, a
		}
		pairs[[2]graph.Label{a, b}] = true
	}
	var frontier []*pattern.Pattern
	for pair := range pairs {
		res.Stats.Codes++
		if p := pattern.SingleEdge(pair[0], pair[1]); admit(p) {
			frontier = append(frontier, p)
		}
	}
	byCode(frontier)

	labels := g.Labels()
	for len(frontier) > 0 {
		var next []*pattern.Pattern
		for _, p := range frontier {
			res.Stats.Candidates++
			ctx, err := core.NewContext(g, p, core.Options{Streaming: true, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			r, err := measures.MNI{}.Compute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if r.Value < cfg.MinSupport {
				res.Stats.Pruned++
				continue
			}
			res.Patterns = append(res.Patterns, miner.FrequentPattern{
				Pattern: p, Support: r.Value, Exact: r.Exact,
				Occurrences: ctx.NumOccurrences(), Instances: ctx.NumInstances(),
			})
			res.Stats.Frequent++
			alphabet := labels
			if p.Size() >= cfg.MaxPatternSize {
				alphabet = nil
			}
			res.Stats.Codes += p.GrowSteps(len(alphabet))
			for _, ext := range p.Extend(alphabet) {
				res.Stats.Extensions++
				if admit(ext.Result) {
					next = append(next, ext.Result)
				}
			}
		}
		byCode(next)
		frontier = next
	}
	return res
}

// checkMineMatchesReference mines g at every shard count in {1, 2, 7},
// enumeration parallelism in {1, 4} and candidate parallelism in {1, 3}, and
// holds each result to referenceMine's: the same patterns in the same order
// with the same supports, exactness and counts, and the same Stats but for
// the clocks and Unsearched, which must lie within Pruned. It returns the
// reference result and the Unsearched count, which is the same at every
// setting.
func checkMineMatchesReference(t *testing.T, g *graph.Graph, minSupport float64, maxSize int) (*miner.Result, int) {
	t.Helper()
	want := referenceMine(t, g, miner.Config{MinSupport: minSupport, MaxPatternSize: maxSize})
	unsearched := -1
	for _, shards := range []int{1, 2, 7} {
		for _, enumPar := range []int{1, 4} {
			for _, par := range []int{1, 3} {
				cfg := miner.Config{MinSupport: minSupport, MaxPatternSize: maxSize, EnumShards: shards, EnumParallelism: enumPar, Parallelism: par}
				tag := fmt.Sprintf("graph %v minsup %v maxsize %d shards %d enum %d par %d", g.Edges(), minSupport, maxSize, shards, enumPar, par)
				got := freshMine(t, g, cfg)
				if len(got.Patterns) != len(want.Patterns) {
					t.Fatalf("%s: %d frequent patterns, reference %d", tag, len(got.Patterns), len(want.Patterns))
				}
				for i, w := range want.Patterns {
					p := got.Patterns[i]
					if p.Pattern.CanonicalCode() != w.Pattern.CanonicalCode() || p.Support != w.Support || p.Exact != w.Exact ||
						p.Occurrences != w.Occurrences || p.Instances != w.Instances {
						t.Fatalf("%s: pattern %d is %s support=%v exact=%v occ=%d inst=%d, reference %s support=%v exact=%v occ=%d inst=%d",
							tag, i, p.Pattern.CanonicalCode(), p.Support, p.Exact, p.Occurrences, p.Instances,
							w.Pattern.CanonicalCode(), w.Support, w.Exact, w.Occurrences, w.Instances)
					}
				}
				st, ws := got.Stats, want.Stats
				if st.Candidates != ws.Candidates || st.Pruned != ws.Pruned || st.Frequent != ws.Frequent ||
					st.Duplicates != ws.Duplicates || st.Extensions != ws.Extensions || st.Codes != ws.Codes {
					t.Fatalf("%s: stats %+v, reference %+v", tag, st, ws)
				}
				if st.Unsearched < 0 || st.Unsearched > st.Pruned || (unsearched >= 0 && st.Unsearched != unsearched) {
					t.Fatalf("%s: %d unsearched of %d pruned (another setting left %d unsearched)", tag, st.Unsearched, st.Pruned, unsearched)
				}
				unsearched = st.Unsearched
			}
		}
	}
	return want, unsearched
}

// TestMineMatchesReference runs the differential check on generated graphs
// large enough that candidates are pruned both ways — searched, and settled by
// their sub-patterns' domains alone.
func TestMineMatchesReference(t *testing.T) {
	unsearched := 0
	for _, c := range []struct {
		g          *graph.Graph
		minSupport float64
		maxSize    int
	}{
		{gen.BarabasiAlbert(60, 2, gen.UniformLabels{K: 3}, 13), 3, 4},
		{gen.BarabasiAlbert(90, 3, gen.UniformLabels{K: 2}, 7), 6, 4},
		{gen.ErdosRenyi(50, 0.08, gen.UniformLabels{K: 3}, 5), 2, 4},
	} {
		want, n := checkMineMatchesReference(t, c.g, c.minSupport, c.maxSize)
		t.Logf("%d vertices: %d candidates, %d pruned, %d of them unsearched", c.g.NumVertices(), want.Stats.Candidates, want.Stats.Pruned, n)
		if want.Stats.Frequent == 0 || want.Stats.Pruned == 0 {
			t.Fatalf("vacuous case: %+v", want.Stats)
		}
		unsearched += n
	}
	if unsearched == 0 {
		t.Fatal("no candidate was settled without a search: the level table is never consulted")
	}
}

// FuzzMineMatchesReference holds Mine to referenceMine on a graph, labels,
// threshold and size cap decoded from the fuzz input, over every shard count,
// enumeration parallelism and candidate parallelism checkMineMatchesReference
// sweeps.
func FuzzMineMatchesReference(f *testing.F) {
	f.Add([]byte{})
	// Two labels on a 6-cycle with chords.
	f.Add([]byte{5, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 3, 1, 4})
	// One label, a dense 9-vertex graph, minimum support 2, up to four nodes.
	f.Add([]byte{9, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 1, 2, 1, 3, 2, 4, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0, 2, 6, 3, 7})
	// Three labels, 14 vertices, minimum support 1, up to three nodes.
	f.Add([]byte{14, 2, 0, 1, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 0, 7, 3, 10, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, minSupport, maxSize := decodeMiningInput(data)
		checkMineMatchesReference(t, g, minSupport, maxSize)
	})
}

// decodeMiningInput reads a mining problem from data: a vertex-count byte
// (three to sixteen vertices), a label-count byte (one to three labels), a
// threshold byte (one to three), a size-cap byte (two to four nodes), a label
// byte per vertex, and every remaining byte pair as an edge. Missing bytes
// read as zero.
func decodeMiningInput(data []byte) (*graph.Graph, float64, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 3 + next()%14
	labels := 1 + next()%3
	minSupport := float64(1 + next()%3)
	maxSize := 2 + next()%3
	g := graph.New("fuzz-mining")
	for i := 0; i < n; i++ {
		g.MustAddVertex(graph.VertexID(i), graph.Label(next()%labels))
	}
	for len(data) >= 2 {
		u, v := graph.VertexID(next()%n), graph.VertexID(next()%n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g, minSupport, maxSize
}

// TestMineContextStopsWhenCancelled: a miner handed a done context evaluates
// nothing and returns the context's error.
func TestMineContextStopsWhenCancelled(t *testing.T) {
	m, err := miner.New(gen.BarabasiAlbert(60, 2, gen.UniformLabels{K: 2}, 5), miner.Config{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 3} {
		m, err := miner.New(gen.BarabasiAlbert(60, 2, gen.UniformLabels{K: 2}, 5), miner.Config{MinSupport: 3, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := m.MineContext(ctx); res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: cancelled mine returned %v, %v; want no result and context.Canceled", par, res, err)
		}
	}
	if _, err := m.MineContext(context.Background()); err != nil {
		t.Fatalf("a live context: %v", err)
	}
}

// FuzzWitnessesMatchSubDomains grows the candidates of a mining problem
// decoded from the fuzz input (decodeMiningInput, as FuzzMineMatchesReference
// does) through a cold mine's and a session open's walks, and holds every
// witness to the sub-patterns it replaced: the same masks and completeness
// over shards {1, 2, 7} × parallelism {1, 4}.
func FuzzWitnessesMatchSubDomains(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 3, 1, 4})
	f.Add([]byte{9, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 1, 2, 1, 3, 2, 4, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0, 2, 6, 3, 7})
	f.Add([]byte{14, 2, 0, 1, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 0, 7, 3, 10, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, minSupport, maxSize := decodeMiningInput(data)
		miner.CheckWitnesses(t, g, minSupport, maxSize)
	})
}
