package support_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	support "repro"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/miner"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/work.golden from this run")

// ledgerCounters are the work counters a ledger line records, as deltas over
// one step: what the searches rooted, emitted, drained and scanned, what the
// delta passes emitted, counted, applied and rebuilt, how many suspects the
// re-checks after them searched for, cleared and rooted searches at (the
// enumeration counters leave the re-checks out), how large the kernels
// built for the LP were, and what the LP and the exact cover and packing
// searches did. Each is deterministic at one shard and parallelism 1.
var ledgerCounters = []struct{ key, name string }{
	{"roots", "repro_enum_roots_total"},
	{"representatives", "repro_enum_representatives_total"},
	{"occurrences", "repro_enum_occurrences_total"},
	{"shard_drains", "repro_enum_shard_drains_total"},
	{"scanned", "repro_enum_scanned_total"},
	{"pass_representatives", "repro_delta_pass_representatives_total"},
	{"pass_counted", "repro_delta_pass_counted_total"},
	{"pass_applied", "repro_delta_pass_applied_total"},
	{"rechecks", "repro_delta_rechecks_total"},
	{"recheck_cleared", "repro_delta_recheck_cleared_total"},
	{"recheck_roots", "repro_delta_recheck_roots_total"},
	{"full_rebuilds", "repro_delta_full_rebuilds_total"},
	{"kernel_vertices", "repro_hypergraph_kernel_vertices_total"},
	{"kernel_edges", "repro_hypergraph_kernel_edges_total"},
	{"lp_solves", "repro_lp_solves_total"},
	{"lp_pivots", "repro_lp_pivots_total"},
	{"cover_nodes", "repro_cover_search_nodes_total"},
	{"packing_nodes", "repro_packing_search_nodes_total"},
}

// ledger accumulates the lines of testdata/work.golden.
type ledger struct {
	buf    bytes.Buffer
	before []uint64
}

// start opens a step: it reads every counter the step's line reports a delta
// of.
func (l *ledger) start() {
	l.before = l.before[:0]
	for _, c := range ledgerCounters {
		l.before = append(l.before, obs.Default.CounterValue(c.name))
	}
}

// record closes a step started by start, writing its miner counts and
// counter deltas on one line.
func (l *ledger) record(step string, st miner.Stats) {
	fmt.Fprintf(&l.buf, "%s candidates=%d pruned=%d unsearched=%d frequent=%d duplicates=%d extensions=%d codes=%d",
		step, st.Candidates, st.Pruned, st.Unsearched, st.Frequent, st.Duplicates, st.Extensions, st.Codes)
	l.counters()
}

// counters writes the counter deltas of the step started by start and ends
// its line.
func (l *ledger) counters() {
	for i, c := range ledgerCounters {
		fmt.Fprintf(&l.buf, " %s=%d", c.key, obs.Default.CounterValue(c.name)-l.before[i])
	}
	l.buf.WriteByte('\n')
}

// TestWorkLedger runs seeded, reduced copies of the mining workloads' work
// with no timing and holds their work counts to testdata/work.golden: a
// change that moves how many candidates, roots or delta passes a run takes
// shows as a diff of that file. Run with -update to rewrite it.
func TestWorkLedger(t *testing.T) {
	var l ledger
	l.buf.WriteString("# Work ledger: miner.Stats counts and enumeration / delta-pass counter deltas\n" +
		"# of seeded mining runs at one shard and parallelism 1. Session lines carry the\n" +
		"# session's Stats after the step and the counter deltas of the step alone.\n" +
		"# Rewrite with: go test -run TestWorkLedger -update .\n")
	ledgerMineCold(t, &l)
	ledgerSession(t, &l)
	ledgerMineMaterialized(t, &l, measures.NameMI)
	ledgerMineMaterialized(t, &l, measures.NameMVC)
	ledgerMineMaterialized(t, &l, measures.NameMIS)
	ledgerEvalMeasures(t, &l)
	ledgerEvalStream(t, &l)

	path := filepath.Join("testdata", "work.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, l.buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := l.buf.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("%s line %d differs:\n got %s\nwant %s", path, i+1, g, w)
			}
		}
	}
}

// ledgerConfig is a mining configuration pinned to one shard and sequential
// evaluation and enumeration.
func ledgerConfig(minSupport float64, maxSize int) miner.Config {
	return miner.Config{MinSupport: minSupport, MaxPatternSize: maxSize, EnumShards: 1, EnumParallelism: 1, Parallelism: 1}
}

// ledgerMineCold records a cold MNI mine: the mine-cold workload's work.
func ledgerMineCold(t *testing.T, l *ledger) {
	g := gen.BarabasiAlbert(400, 2, gen.UniformLabels{K: 3}, 1)
	m, err := miner.New(g, ledgerConfig(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	l.buf.WriteString("== mine-cold: BA(400, 2), 3 labels, seed 1; MNI, MinSupport 10, size 4\n")
	l.start()
	res, err := m.Mine()
	if err != nil {
		t.Fatal(err)
	}
	l.record("mine", res.Stats)
}

// ledgerSession records a session open and 16 refreshes: the refresh-durable
// workload's work. Each batch toggles one edge; batch 5 also adds vertices
// under a label the graph has not had, and batch 11 removes a vertex.
func ledgerSession(t *testing.T, l *ledger) {
	g := gen.BarabasiAlbert(4096, 2, gen.UniformLabels{K: 3}, 1)
	l.buf.WriteString("== session: BA(4096, 2), 3 labels, seed 1; MNI, MinSupport 100, size 3; 16 batches\n")
	l.start()
	inc, err := miner.NewIncremental(g, ledgerConfig(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	l.record("open", inc.Result().Stats)

	ids := g.SortedVertices()
	n := len(ids)
	for b := 0; b < 16; b++ {
		u, v := ids[(b*37)%n], ids[(b*101+13)%n]
		if g.HasEdge(u, v) {
			g.MustRemoveEdge(u, v)
		} else {
			g.MustAddEdge(u, v)
		}
		switch b {
		case 5:
			// Three vertices of a label the graph has not had (BA's labels
			// are 1..3) widen the alphabet and seed new label pairs.
			for k := 1; k <= 3; k++ {
				x := ids[n-1] + graph.VertexID(k)
				g.MustAddVertex(x, 4)
				g.MustAddEdge(x, ids[k*7])
			}
		case 11:
			g.MustRemoveVertex(ids[n/2])
		}
		l.start()
		res, err := inc.Refresh()
		if err != nil {
			t.Fatalf("refresh %d: %v", b, err)
		}
		l.record(fmt.Sprintf("refresh-%02d", b), res.Stats)
	}
}

// ledgerMineMaterialized records a cold mine of gminer's fixed graph
// (cmd/gminer/testdata/ba120.lg) under the registry's measure of the given
// name, one that needs the occurrence list: MI's transitive node subsets, or
// the LP and the cover or packing search of MVC and MIS.
func ledgerMineMaterialized(t *testing.T, l *ledger, name string) {
	measure, err := measures.NewRegistry().New(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.LoadLGFile(filepath.Join("cmd", "gminer", "testdata", "ba120.lg"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ledgerConfig(4, 4)
	cfg.Measure = measure
	m, err := miner.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&l.buf, "== mine-%s: ba120 (BA(120, 2), 3 labels, seed 7); %s, MinSupport 4, size 4\n", strings.ToLower(name), name)
	l.start()
	res, err := m.Mine()
	if err != nil {
		t.Fatal(err)
	}
	l.record("mine", res.Stats)
}

// ledgerPattern builds a pattern from node labels and edges over node
// positions.
func ledgerPattern(labels []graph.Label, edges ...[2]int) *pattern.Pattern {
	b := graph.NewBuilder("pattern")
	for i, l := range labels {
		b.Vertex(graph.VertexID(i), l)
	}
	for _, e := range edges {
		b.Edge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	return pattern.MustNew(b.MustBuild())
}

// ledgerEvalMeasures records the eval-measures workload's evaluations, each
// materialised and sequential: the polynomial measures of an edge, a path, a
// star and a path of four on BA(240) and the whole bounding chain of the edge
// and the path on BA(100), both on the generator's own numbering. Each line
// carries the evaluation's counter deltas and then every value and Exact
// flag (ledger.evaluate).
func ledgerEvalMeasures(t *testing.T, l *ledger) {
	cases, engines := evalMeasuresCases(t)
	l.buf.WriteString("== eval-measures: BA(240, 2) and BA(100, 2), 2 labels, seed 1; materialised, sequential\n")
	for _, c := range cases {
		l.evaluate(t, engines[c.n], c.name, c.p, c.measures)
	}
}

// evalMeasuresCase is one evaluation of the eval-measures workload: a
// pattern and the measures asked of it on BA(n).
type evalMeasuresCase struct {
	name     string
	n        int
	p        *pattern.Pattern
	measures []string
}

// evalMeasuresCases returns the eval-measures workload's six evaluations and
// the engines they run on, keyed by n: BA(240, 2) and BA(100, 2), 2 labels,
// seed 1, one shard, sequential.
func evalMeasuresCases(tb testing.TB) ([]evalMeasuresCase, map[int]*support.Engine) {
	poly := []string{"MNI", "MI", "nuMVC", "nuMIES", "MVC-approx", "occurrences", "instances"}
	chain := []string{"MNI", "MI", "nuMVC", "nuMIES", "MVC", "MIS", "MIES"}
	cases := []evalMeasuresCase{
		{"edge", 240, pattern.SingleEdge(1, 2), poly},
		{"path", 240, ledgerPattern([]graph.Label{1, 2, 2}, [2]int{0, 1}, [2]int{1, 2}), poly},
		{"star", 240, ledgerPattern([]graph.Label{1, 2, 2, 2}, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}), poly},
		{"path4", 240, ledgerPattern([]graph.Label{1, 2, 1, 2}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}), poly},
		{"edge-exact", 100, pattern.SingleEdge(1, 2), chain},
		{"path-exact", 100, ledgerPattern([]graph.Label{1, 2, 2}, [2]int{0, 1}, [2]int{1, 2}), chain},
	}
	engines := map[int]*support.Engine{}
	for _, n := range []int{240, 100} {
		eng, err := support.NewEngine(gen.BarabasiAlbert(n, 2, gen.UniformLabels{K: 2}, 1), support.EngineOptions{Parallelism: 1, Shards: 1})
		if err != nil {
			tb.Fatal(err)
		}
		engines[n] = eng
	}
	return cases, engines
}

// ledgerEvalStream records the eval-stream workload's evaluations on a
// reduced graph: ER(2^12) at mean degree 6 with 2 labels on the generator's
// own numbering, written to a one-shard store and served from it mmapped,
// and MNI and the occurrence count of an edge, a path, a triangle and a
// 3-star streamed at parallelism 1.
func ledgerEvalStream(t *testing.T, l *ledger) {
	const n = 1 << 12
	dir := t.TempDir()
	g := gen.ErdosRenyi(n, 6/float64(n-1), gen.UniformLabels{K: 2}, 1)
	if err := store.Write(g.FreezeSharded(graph.FreezeOptions{Shards: 1}), dir); err != nil {
		t.Fatal(err)
	}
	eng, err := support.OpenStoreEngine(dir, support.EngineOptions{Parallelism: 1, Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	l.buf.WriteString("== eval-stream: ER(4096, 6/4095), 2 labels, seed 1, a one-shard store; streamed, sequential\n")
	for _, c := range []struct {
		name string
		p    *pattern.Pattern
	}{
		{"edge", pattern.SingleEdge(1, 2)},
		{"path", ledgerPattern([]graph.Label{1, 2, 2}, [2]int{0, 1}, [2]int{1, 2})},
		{"triangle", ledgerPattern([]graph.Label{1, 2, 2}, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2})},
		{"star", ledgerPattern([]graph.Label{1, 2, 2, 2}, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})},
	} {
		l.evaluate(t, eng, c.name, c.p, []string{"MNI", "occurrences"})
	}
}

// evaluate records one evaluation of p on eng: a line of its counter deltas,
// then one of every value and Exact flag, so a change in work shows beside
// proof that the answers held.
func (l *ledger) evaluate(t *testing.T, eng *support.Engine, name string, p *pattern.Pattern, names []string) {
	t.Helper()
	l.start()
	resp, err := eng.Do(&support.Request{Pattern: p, Measures: names})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(&l.buf, "eval-%s", name)
	l.counters()
	ev := resp.Evaluation
	l.buf.WriteString("  values")
	for _, name := range ev.Names() {
		r := ev.Results[name]
		fmt.Fprintf(&l.buf, " %s=%g/%t", name, r.Value, r.Exact)
	}
	l.buf.WriteByte('\n')
}
