package measures_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/lp"
	"repro/internal/measures"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// The two equalities of the bounding chain, ν_MVC = ν_MIES (Theorem 4.6) and
// σ_MIS = σ_MIES (Theorem 4.1), are each one computation; the tests here hold
// that in place on the benchmark's query patterns over labels 1 and 2.

func labeledPattern(labels []graph.Label, edges ...[2]int) *pattern.Pattern {
	b := graph.NewBuilder("pattern")
	for i, l := range labels {
		b.Vertex(graph.VertexID(i), l)
	}
	for _, e := range edges {
		b.Edge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	return pattern.MustNew(b.MustBuild())
}

var queryPatterns = map[string]*pattern.Pattern{
	"edge":     pattern.SingleEdge(1, 2),
	"path":     labeledPattern([]graph.Label{1, 2, 2}, [2]int{0, 1}, [2]int{1, 2}),
	"star":     labeledPattern([]graph.Label{1, 2, 2, 2}, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}),
	"path4":    labeledPattern([]graph.Label{1, 2, 1, 2}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}),
	"triangle": labeledPattern([]graph.Label{1, 2, 2}, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}),
}

func barabasiAlbert(n int, seed uint64) *graph.Graph {
	return gen.BarabasiAlbert(n, 2, gen.UniformLabels{K: 2}, seed)
}

// TestNuBitIdentical holds ν_MVC of the six eval-measures cases of the
// benchmark to the bit. Five are the bits the general two-phase simplex
// produced on the whole instance hypergraph before the packing LP was laid
// onto the tableau directly (constants generated at that commit). path4's
// was 33.99999999999999 there; the context now solves the LP of H_I's
// kernel, where it is exactly 34. ν_MIES must be the same float, not merely
// a close one.
func TestNuBitIdentical(t *testing.T) {
	cases := []struct {
		n       int
		pattern string
		want    string
	}{
		{240, "edge", "6051711999279104p-46"},
		{240, "path", "5207287069147136p-47"},
		{240, "star", "5348024557502464p-48"},
		{240, "path4", "4785074604081152p-47"},
		{100, "edge", "7881299347898368p-48"},
		{100, "path", "5066549580791808p-48"},
	}
	for _, c := range cases {
		ctx := mustContext(t, barabasiAlbert(c.n, 1), queryPatterns[c.pattern])
		for _, m := range []measures.Measure{measures.NuMVC{}, measures.NuMIES{}} {
			res, err := m.Compute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%b", res.Value); got != c.want {
				t.Errorf("%s of %s on BA(%d) = %s (%v), want %s", m.Name(), c.pattern, c.n, got, res.Value, c.want)
			}
		}
	}
}

// TestOneSolvePerContext counts LP solves: the full default set on a
// materialized context needs exactly one, a second evaluation of the same
// context none, a streaming context never any, and concurrent first readers
// of Context.Relaxation share a single solve and its result.
func TestOneSolvePerContext(t *testing.T) {
	solves := obs.Default.Counter("repro_lp_solves_total")
	moved := func(f func()) uint64 {
		before := solves.Value()
		f()
		return solves.Value() - before
	}
	evaluate := func(ctx *core.Context) func() {
		return func() {
			if _, err := measures.Evaluate(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, p := barabasiAlbert(60, 1), queryPatterns["path"]

	ctx := mustContext(t, g, p)
	if n := moved(evaluate(ctx)); n != 1 {
		t.Errorf("the default set solved %d LPs on a fresh context, want 1", n)
	}
	if n := moved(evaluate(ctx)); n != 0 {
		t.Errorf("a second evaluation of the same context solved %d LPs, want 0", n)
	}
	if n := moved(evaluate(core.MustNewContext(g, p, core.Options{Streaming: true}))); n != 0 {
		t.Errorf("a streaming context solved %d LPs, want 0", n)
	}

	ctx = mustContext(t, g, p)
	results := make([]lp.RelaxationResult, 8)
	n := moved(func() {
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = ctx.Relaxation()
			}()
		}
		wg.Wait()
	})
	if n != 1 {
		t.Errorf("8 concurrent readers solved %d LPs, want 1", n)
	}
	for i, r := range results {
		if r.Status != lp.Optimal || r.Value != results[0].Value || &r.Packing[0] != &results[0].Packing[0] {
			t.Errorf("reader %d got its own result: %v vs %v", i, r.Value, results[0].Value)
		}
	}
}

// TestKernelOnlyWhenSolved counts kernel builds: evaluating MNI, MI, the raw
// counts and the measures that read H_I itself (MVC-approx, MIES-greedy,
// MCP) on a materialized context builds no kernel, the first measure that
// needs the LP or an exact cover or packing builds one, and the rest of the
// default set reuses it.
func TestKernelOnlyWhenSolved(t *testing.T) {
	vertices := obs.Default.Counter("repro_hypergraph_kernel_vertices_total")
	edges := obs.Default.Counter("repro_hypergraph_kernel_edges_total")
	ctx := mustContext(t, barabasiAlbert(60, 1), queryPatterns["path"])
	evaluate := func(ms ...measures.Measure) (uint64, uint64) {
		v0, e0 := vertices.Value(), edges.Value()
		if _, err := measures.Evaluate(ctx, ms...); err != nil {
			t.Fatal(err)
		}
		return vertices.Value() - v0, edges.Value() - e0
	}
	if v, e := evaluate(measures.MNI{}, measures.MI{}, measures.RawCount{}, measures.RawCount{Instances: true},
		measures.MVC{Approximate: true}, measures.MIES{Approximate: true}, measures.MCP{}); v != 0 || e != 0 {
		t.Errorf("measures that read no kernel built one of %d vertices and %d edges", v, e)
	}
	k, _ := ctx.Kernel()
	if v, e := evaluate(measures.MIES{}); v != 0 || e != 0 {
		t.Errorf("MIES after Kernel() built another kernel of %d vertices and %d edges", v, e)
	}

	ctx = mustContext(t, barabasiAlbert(60, 1), queryPatterns["path"])
	if v, e := evaluate(measures.NuMVC{}); v != uint64(k.NumVertices()) || e != uint64(k.NumEdges()) {
		t.Errorf("nuMVC built kernels of %d vertices and %d edges in all, want one of %d and %d", v, e, k.NumVertices(), k.NumEdges())
	}
	if v, e := evaluate(measures.DefaultSet()...); v != 0 || e != 0 {
		t.Errorf("the default set built another kernel of %d vertices and %d edges", v, e)
	}
}

// TestMISIsMIES sweeps 160 small contexts (156 once contexts of over 800
// occurrences are skipped) under a budget tight enough to truncate some searches: MIS and
// MIES must agree in value and in exactness on every one. Before they shared
// one search they disagreed on five — the named cases below — and no bound
// either of them reported then may have got worse.
func TestMISIsMIES(t *testing.T) {
	const budget = 20000
	type key struct {
		model   string
		n       int
		seed    uint64
		pattern string
	}
	wantExact := map[key]bool{
		{"ba", 60, 1, "star"}:  true,
		{"ba", 30, 4, "path4"}: true,
		{"er", 30, 4, "path4"}: true,
	}
	wantAtLeast := map[key]float64{
		{"ba", 60, 3, "star"}: 7,
		{"ba", 60, 5, "path"}: 8,
	}
	checked := 0
	for _, model := range []string{"ba", "er"} {
		for _, n := range []int{30, 60} {
			for seed := uint64(1); seed <= 8; seed++ {
				g := barabasiAlbert(n, seed)
				if model == "er" {
					g = gen.ErdosRenyi(n, 3/float64(n), gen.UniformLabels{K: 2}, seed)
				}
				for name, p := range queryPatterns {
					ctx := mustContext(t, g, p)
					if ctx.NumOccurrences() > 800 {
						continue
					}
					checked++
					mis, err := measures.MIS{MaxNodes: budget}.Compute(ctx)
					if err != nil {
						t.Fatal(err)
					}
					mies, err := measures.MIES{MaxNodes: budget}.Compute(ctx)
					if err != nil {
						t.Fatal(err)
					}
					k := key{model, n, seed, name}
					if mis.Value != mies.Value || mis.Exact != mies.Exact {
						t.Errorf("%v: MIS = %v (exact %v) but MIES = %v (exact %v)", k, mis.Value, mis.Exact, mies.Value, mies.Exact)
					}
					if wantExact[k] && !mies.Exact {
						t.Errorf("%v: MIES = %v is not exact", k, mies.Value)
					}
					if mies.Value < wantAtLeast[k] {
						t.Errorf("%v: MIES = %v, want at least %v", k, mies.Value, wantAtLeast[k])
					}
				}
			}
		}
	}
	if checked != 156 {
		t.Errorf("the sweep checked %d contexts, want 156", checked)
	}
}

// TestSearchedWitnessesAreHIs evaluates MVC and MIES where the LP bound
// certifies no greedy answer on the kernel — one-label edges and paths on
// sparse random graphs — so the kernel's searches run: each value must be
// H_I's unbudgeted optimum, and each witness a cover of H_I, or disjoint
// edges of H_I named by H_I's EdgeIDs, of that size.
func TestSearchedWitnessesAreHIs(t *testing.T) {
	searched := 0
	for _, n := range []int{10, 12, 16} {
		g := gen.ErdosRenyi(n, 0.3, gen.UniformLabels{K: 1}, 1)
		for _, p := range []*pattern.Pattern{pattern.SingleEdge(1, 1), labeledPattern([]graph.Label{1, 1, 1}, [2]int{0, 1}, [2]int{1, 2})} {
			ctx := mustContext(t, g, p)
			h := ctx.OccurrenceHypergraph()
			mvc, err := measures.MVC{}.Compute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := h.MinimumVertexCover(0).Size; mvc.Value != float64(want) || !mvc.Exact {
				t.Errorf("ER(%d) %v: MVC = %v (exact %v), H_I's minimum cover is %d", n, p, mvc.Value, mvc.Exact, want)
			}
			if cover, ok := witnessIDs[graph.VertexID](mvc.Witness, "vertex cover "); ok {
				searched++
				if len(cover) != int(mvc.Value) || h.ValidateCover(cover) != nil {
					t.Errorf("ER(%d) %v: MVC witness %s is no cover of H_I of size %v", n, p, mvc.Witness, mvc.Value)
				}
			}
			mies, err := measures.MIES{}.Compute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := h.MaximumIndependentEdgeSet(0).Size; mies.Value != float64(want) || !mies.Exact {
				t.Errorf("ER(%d) %v: MIES = %v (exact %v), H_I's maximum packing is %d", n, p, mies.Value, mies.Exact, want)
			}
			if edges, ok := witnessIDs[hypergraph.EdgeID](mies.Witness, "independent hyperedges "); ok {
				searched++
				if len(edges) != int(mies.Value) || !h.IsIndependentEdgeSet(edges) {
					t.Errorf("ER(%d) %v: MIES witness %s is not %v disjoint edges of H_I", n, p, mies.Witness, mies.Value)
				}
			}
		}
	}
	if searched < 4 {
		t.Errorf("only %d of the 12 answers came from a search", searched)
	}
}

// witnessIDs parses a witness of the form prefix + "[1 2 3]" into its IDs.
func witnessIDs[ID ~int | ~int64](witness, prefix string) ([]ID, bool) {
	list, ok := strings.CutPrefix(witness, prefix)
	if !ok {
		return nil, false
	}
	var ids []ID
	for _, f := range strings.Fields(strings.Trim(list, "[]")) {
		id, err := strconv.Atoi(f)
		if err != nil {
			return nil, false
		}
		ids = append(ids, ID(id))
	}
	return ids, true
}

// TestSearchTreesUnmoved pins the exact searches on the two small
// eval-measures cases, without the LP bound (the unbounded entry points the
// benchmark's probes call) and at the probes' 20 000-node budget, to what the
// map-based searches did before the solvers moved onto the dense view: the
// cover search explores 7 409 nodes on the edge pattern and is cut off on
// node 20 001 on the path, and both searches return the covers and packings
// recorded then. Handed ⌈ν⌉ — the bound measures.MVC hands its search on
// the kernel (TestMeasuresBoundTheirSearches) — the edge search stops on the
// same cover the moment it finds it, which a 50-node budget is enough for.
func TestSearchTreesUnmoved(t *testing.T) {
	coverNodes := obs.Default.Counter("repro_cover_search_nodes_total")
	packingNodes := obs.Default.Counter("repro_packing_search_nodes_total")
	cases := []struct {
		pattern      string
		coverNodes   uint64
		coverExact   bool
		cover        string
		packingNodes uint64
		packing      string
	}{
		{"edge", 7409, true, "[0 1 2 4 5 6 7 8 9 10 11 17 19 20 28 29 32 35 36 49 50 52 67 73 76 80 85 92]",
			20001, "[5 13 18 22 26 32 36 40 42 43 46 49 54 58 61 63 66 67 68 72 74 76 79 81 84 86 87 88]"},
		{"path", 20001, false, "[0 1 2 3 4 6 9 10 16 18 20 24 32 33 36 40 49 57]",
			20001, "[48 131 162 181 203 230 239 253 287 296 313 332 337 355 363 365 400 424]"},
	}
	for _, c := range cases {
		ctx := mustContext(t, barabasiAlbert(100, 1), queryPatterns[c.pattern])
		h := ctx.OccurrenceHypergraph()

		before := coverNodes.Value()
		cover := h.MinimumVertexCover(20000)
		if n := coverNodes.Value() - before; n != c.coverNodes {
			t.Errorf("%s: the cover search explored %d nodes, want %d", c.pattern, n, c.coverNodes)
		}
		if got := fmt.Sprint(cover.Cover); got != c.cover || cover.Exact != c.coverExact {
			t.Errorf("%s: cover %s (exact %v), want %s (exact %v)", c.pattern, got, cover.Exact, c.cover, c.coverExact)
		}

		before = packingNodes.Value()
		packing := h.MaximumIndependentEdgeSet(20000)
		if n := packingNodes.Value() - before; n != c.packingNodes {
			t.Errorf("%s: the packing search explored %d nodes, want %d", c.pattern, n, c.packingNodes)
		}
		if got := fmt.Sprint(packing.Edges); got != c.packing || packing.Exact {
			t.Errorf("%s: packing %s (exact %v), want %s (exact false)", c.pattern, got, packing.Exact, c.packing)
		}
	}

	ctx := mustContext(t, barabasiAlbert(100, 1), queryPatterns["edge"])
	lower := int(math.Ceil(ctx.Relaxation().Value - 1e-6))
	before := coverNodes.Value()
	res := ctx.OccurrenceHypergraph().MinimumVertexCoverBounded(50, lower)
	if n := coverNodes.Value() - before; !res.Exact || fmt.Sprint(res.Cover) != cases[0].cover || n >= 50 {
		t.Errorf("cover under ⌈ν⌉ = %d and 50 nodes: %v (exact %v) after %d nodes", lower, res.Cover, res.Exact, n)
	}
}

// TestMeasuresBoundTheirSearches holds the exact measures to the LP bound
// they hand their kernel searches, on two one-label ER contexts where no
// greedy answer is certified. The cover search on the kernel of the edge
// pattern on ER(16, 0.3, seed 2) meets ⌈ν⌉ = 8 after 10 nodes but needs 22 to
// prove 8 minimum without it; the packing search on the edge pattern on
// ER(12, 0.3, seed 1) starts at ⌊ν⌋ = 6 but needs 308 nodes to prove it
// maximum. Under a budget of those 10 and 1 nodes, MVC, MIES and MIS must be
// exact and explore exactly the nodes the bounded search does.
func TestMeasuresBoundTheirSearches(t *testing.T) {
	coverNodes := obs.Default.Counter("repro_cover_search_nodes_total")
	packingNodes := obs.Default.Counter("repro_packing_search_nodes_total")
	compute := func(ctx *core.Context, m measures.Measure, nodes *obs.Counter) (measures.Result, uint64) {
		before := nodes.Value()
		res, err := m.Compute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res, nodes.Value() - before
	}
	edge := pattern.SingleEdge(1, 1)

	ctx := mustContext(t, gen.ErdosRenyi(16, 0.3, gen.UniformLabels{K: 1}, 2), edge)
	k, _ := ctx.Kernel()
	lower := int(math.Ceil(ctx.Relaxation().Value - 1e-6))
	before := coverNodes.Value()
	if k.MinimumVertexCover(0); coverNodes.Value()-before != 22 {
		t.Errorf("the unbounded cover search explored %d nodes, want 22", coverNodes.Value()-before)
	}
	if res := k.MinimumVertexCover(10); res.Exact {
		t.Errorf("the unbounded cover search proved %d minimum within 10 nodes", res.Size)
	}
	before = coverNodes.Value()
	want := k.MinimumVertexCoverBounded(10, lower)
	wantNodes := coverNodes.Value() - before
	if !want.Exact || want.Size != lower || wantNodes != 10 {
		t.Fatalf("under ⌈ν⌉ = %d the cover search found %d (exact %v) after %d nodes, want %d, exact, after 10", lower, want.Size, want.Exact, wantNodes, lower)
	}
	mvc, n := compute(ctx, measures.MVC{MaxNodes: 10}, coverNodes)
	if mvc.Value != float64(want.Size) || !mvc.Exact || n != wantNodes || mvc.Witness != fmt.Sprintf("vertex cover %v", want.Cover) {
		t.Errorf("MVC under 10 nodes = %v (exact %v) after %d nodes, %s; the bounded search found %d after %d",
			mvc.Value, mvc.Exact, n, mvc.Witness, want.Size, wantNodes)
	}

	ctx = mustContext(t, gen.ErdosRenyi(12, 0.3, gen.UniformLabels{K: 1}, 1), edge)
	k, origin := ctx.Kernel()
	upper := int(math.Floor(ctx.Relaxation().Value + 1e-6))
	before = packingNodes.Value()
	if k.MaximumIndependentEdgeSet(0); packingNodes.Value()-before != 308 {
		t.Errorf("the unbounded packing search explored %d nodes, want 308", packingNodes.Value()-before)
	}
	if res := k.MaximumIndependentEdgeSet(1); res.Exact {
		t.Errorf("the unbounded packing search proved %d maximum within 1 node", res.Size)
	}
	before = packingNodes.Value()
	packing := k.MaximumIndependentEdgeSetBounded(1, upper)
	wantNodes = packingNodes.Value() - before
	if !packing.Exact || packing.Size != upper {
		t.Fatalf("under ⌊ν⌋ = %d the packing search found %d (exact %v)", upper, packing.Size, packing.Exact)
	}
	edges := make([]hypergraph.EdgeID, len(packing.Edges))
	for i, e := range packing.Edges {
		edges[i] = origin[e]
	}
	for _, m := range []measures.Measure{measures.MIES{MaxNodes: 1}, measures.MIS{MaxNodes: 1}} {
		res, n := compute(ctx, m, packingNodes)
		if res.Value != float64(packing.Size) || !res.Exact || n != wantNodes || !strings.HasSuffix(res.Witness, fmt.Sprint(edges)) {
			t.Errorf("%s under 1 node = %v (exact %v) after %d nodes, %s; the bounded search found %v after %d",
				m.Name(), res.Value, res.Exact, n, res.Witness, edges, wantNodes)
		}
	}
}

// TestStarPackingFinishesWithinBudget pins MIS and MIES of the 3-leaf star on
// BA(100, 2, 2 labels, seed 1) under DefaultMaxNodes. While the hypergraph
// held every automorphic copy of an instance (six per star) the packing search
// branched over all of them and ran out of budget at 9, not exact; on one
// hyperedge per instance it finishes, at 10, exact, and the bounding chain
// holds around it.
func TestStarPackingFinishesWithinBudget(t *testing.T) {
	ctx := mustContext(t, barabasiAlbert(100, 1), queryPatterns["star"])
	for _, m := range []measures.Measure{measures.MIS{}, measures.MIES{}} {
		res, err := m.Compute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != 10 || !res.Exact {
			t.Errorf("%s = %v (exact %v), want 10, exact", m.Name(), res.Value, res.Exact)
		}
	}
	ev, err := measures.Evaluate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.VerifyBoundingChain(); err != nil {
		t.Error(err)
	}
}
