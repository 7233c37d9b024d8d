package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantNonZero lists, per workload, the per-layer metrics that must read
// non-zero on a traced run: the layers the workload executes.
var wantNonZero = map[string][]string{
	"mine-cold": {
		"pattern.extend_ms", "pattern.canonical_us", "pattern.extensions", "pattern.self_share",
		"isomorph.enumerate_ms", "isomorph.occurrences", "isomorph.ns_per_occurrence", "isomorph.roots", "isomorph.shard_drains",
		"core.context_stream_ms", "measures.mni_ms",
		"miner.mine_ms", "miner.candidates", "miner.duplicates", "miner.pruned", "miner.frequent", "miner.duplicate_share", "miner.evaluate_replay_ms",
		"support.do_mine_ms", "support.phase_mine_ms",
	},
	"eval-measures": {
		"isomorph.plan_us", "isomorph.materialize_ms", "isomorph.occurrences", "isomorph.roots",
		"core.context_full_ms", "hypergraph.edges", "hypergraph.vertices",
		"hypergraph.exact_cover_ms", "hypergraph.exact_matching_ms", "hypergraph.greedy_cover_ms",
		"lp.fvc_ms", "lp.fies_ms", "lp.self_share",
		"measures.mni_ms", "measures.mi_ms", "measures.mvc_ms", "measures.mvc_approx_ms", "measures.mis_ms", "measures.mies_ms",
		"measures.numvc_ms", "measures.numies_ms", "measures.exact_share", "measures.chain_checks", "measures.self_share",
		"support.do_evaluate_ms", "support.phase_enumerate_ms", "support.phase_aggregate_ms",
	},
	"eval-stream": {
		"graph.freeze_ms", "isomorph.plan_us", "isomorph.enumerate_ms", "isomorph.occurrences", "isomorph.roots", "isomorph.shard_drains", "isomorph.self_share",
		"core.context_stream_ms", "core.self_share", "measures.mni_ms",
		"store.write_ms", "store.open_ms", "store.bytes_per_edge", "store.page_ins", "store.evictions", "store.resident_share",
		"support.do_evaluate_ms", "support.phase_enumerate_ms",
	},
	"refresh-durable": {
		"graph.freeze_ms", "graph.refreeze_ms", "graph.shards_rebuilt", "graph.mutations", "graph.self_share",
		"core.delta_open_ms", "core.delta_refresh_ms", "core.delta_refreshes", "core.delta_ball_vertices", "core.self_share",
		"miner.refresh_ms", "miner.tracked_patterns", "miner.frequent",
		"store.write_ms", "store.open_ms", "store.bytes_per_edge", "store.wal_append_us", "store.wal_fsync_ms", "store.wal_appends",
		"store.commit_ms", "store.segments_written", "store.segments_carried", "store.carried_share", "store.recover_ms", "store.wal_replayed_batches",
		"support.update_ms", "support.session_open_ms", "support.session_refresh_ms",
	},
	"serve-rw": {
		"server.evaluate_p50_ms", "server.mine_p50_ms", "server.mutate_p50_ms", "server.refresh_p50_ms", "server.transport_us",
		"server.response_bytes", "obs.scrape_ms", "obs.scrape_bytes",
		"support.do_evaluate_ms", "support.do_mine_ms", "support.session_refresh_ms", "support.phase_enumerate_ms", "support.phase_mine_ms",
		"miner.refresh_ms",
	},
}

// exactCounts are the metrics two runs of one seed must agree on exactly.
var exactCounts = []string{
	"miner.candidates", "miner.duplicates", "miner.pruned", "miner.frequent", "miner.tracked_patterns",
	"isomorph.occurrences", "graph.shards_rebuilt", "store.segments_written", "store.segments_carried",
	"pattern.extensions", "hypergraph.edges", "hypergraph.vertices",
}

// shortRun runs one workload at self-test size with fixed work.
func shortRun(t *testing.T, workload string, trace bool, scratch string) *report {
	t.Helper()
	rep, err := runWorkload(&config{workload: workload, seed: 1, seconds: 1, ops: 8, trace: trace, scratch: scratch, short: true})
	if err != nil {
		t.Fatalf("%s (trace %t): %v", workload, trace, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s (trace %t): attempted %d, failed %d", workload, trace, rep.Attempted, rep.Failed)
	}
	return rep
}

// TestWorkloads runs every workload untraced and traced and checks what it
// reports: the declared metrics and no others, the layers it executes
// non-zero, a well-formed span file, and exact counts that repeat.
func TestWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			scratch := t.TempDir()
			rep := shortRun(t, w, false, scratch)
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := rep.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("end-to-end metric %s = %+v (present %t), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}

			traced := shortRun(t, w, true, scratch)
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(traced.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := traced.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("per-layer metric %s = %+v (present %t), want unit %s", d.name, m, ok, d.unit)
				}
			}
			for _, name := range wantNonZero[w] {
				if traced.Metrics[name].Value == 0 {
					t.Errorf("%s is 0 on %s, which executes that layer", name, w)
				}
			}
			share := 0.0
			for _, l := range append([]string{"harness"}, layers...) {
				share += traced.Metrics[l+".self_share"].Value
			}
			if share < 99.9 || share > 100.1 {
				t.Errorf("self shares add up to %.2f%%, want 100%%", share)
			}
			checkSpans(t, filepath.Join(scratch, "trace-"+w+".json"), w)

			again := shortRun(t, w, true, scratch)
			for _, name := range exactCounts {
				if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of seed 1: %v and %v", name, a, b)
				}
			}
			left, err := os.ReadDir(scratch)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				if e.IsDir() {
					t.Errorf("run left directory %s behind", e.Name())
				}
			}
		})
	}
}

// checkSpans parses a span file and checks its tree: ids are positions,
// every parent exists, belongs to the same op and encloses its children, and
// the children of a span never add up to more than the span itself (spans of
// one parent run one after another).
func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("span file is empty")
	}
	children := map[int]int64{}
	for i, s := range spans {
		if s.ID != i+1 || s.Workload != workload || s.EndNs < s.StartNs || s.Layer == "" || !strings.HasPrefix(s.Name, s.Layer+".") {
			t.Fatalf("malformed span %+v at position %d", s, i)
		}
		if s.Parent == 0 {
			if s.Name != "harness.op" {
				t.Errorf("root span %d is %s, want harness.op", s.ID, s.Name)
			}
			continue
		}
		if s.Parent < 1 || s.Parent >= s.ID {
			t.Fatalf("span %d has parent %d, which does not precede it", s.ID, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Op != s.Op || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] += s.EndNs - s.StartNs
	}
	for id, total := range children {
		if p := spans[id-1]; total > p.EndNs-p.StartNs {
			t.Errorf("children of span %d (%s) take %d ns, the span itself %d ns", id, p.Name, total, p.EndNs-p.StartNs)
		}
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the tables the program
// reports from.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d + %d metrics, the program %d + %d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better || f.Bound <= 0 || f.Bound > 0.25 {
			t.Errorf("end-to-end metric %d is %+v, the program has %+v", i, f, d)
		}
		seen[d.name] = true
	}
	for i, d := range perLayer {
		f := file.PerLayer[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			t.Errorf("per-layer metric %d is %+v, the program has %+v", i, f, d)
		}
		if !name.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or used twice", d.name)
		}
		seen[d.name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestQuartiles pins the quartile rule to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
