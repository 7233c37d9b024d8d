package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	support "repro"
	"repro/internal/obs"
)

// obsServer builds a graph-backed server over a fresh Barabási–Albert graph
// and returns the test server plus its HTTP client.
func obsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g := support.BarabasiAlbert(60, 2, 2, 3)
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestMetricsEndpoint pins the /metrics surface: the Prometheus exposition
// must carry at least one metric family from every instrumented layer —
// engine, store/WAL, delta, graph, enumeration, the serving layer itself
// and the miner's search counts — and the exercised counters must be live (nonzero after traffic).
func TestMetricsEndpoint(t *testing.T) {
	_, ts := obsServer(t, Config{})
	c := ts.Client()

	// Drive every layer the graph-backed engine reaches: an evaluation
	// (engine + enumeration), a mutation (graph + engine update) and a
	// session open (sessions + delta maintenance), and a cold mine (the
	// miner's search counts).
	postOK(t, c, ts.URL+"/v1/evaluate", EvaluateRequest{Pattern: PatternWire{Edge: []int{1, 2}}})
	postOK(t, c, ts.URL+"/v1/mine", MineWire{MinSupport: 4, MaxPatternSize: 3})
	postOK(t, c, ts.URL+"/v1/mutate", MutateRequest{AddVertices: []VertexWire{{ID: 6000, Label: 1}, {ID: 6001, Label: 2}}, AddEdges: [][2]int{{6000, 6001}}})
	postOK(t, c, ts.URL+"/v1/sessions", OpenSessionRequest{Mine: MineWire{MinSupport: 4, MaxPatternSize: 2}})

	code, body := doJSON(t, c, http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	text := string(body)

	// One representative family per layer. Registration is global, so the
	// names must be present regardless of which counters this test bumped.
	families := []string{
		"repro_engine_requests_total",       // engine requests
		"repro_engine_enumerate_seconds",    // engine phase histograms
		"repro_engine_epoch",                // epoch gauge
		"repro_miner_extensions_total",      // miner search counts
		"repro_miner_codes_total",           //
		"repro_miner_duplicates_total",      //
		"repro_miner_candidates_total",      //
		"repro_enum_shard_drains_total",     // enumeration drain sampling
		"repro_graph_mutations_total",       // graph mutation layer
		"repro_graph_shard_builds_total",    // graph freezes
		"repro_session_open_seconds",        // sessions
		"repro_delta_refreshes_total",       // delta maintenance
		"repro_delta_pass_counted_total",    //
		"repro_delta_rechecks_total",        //
		"repro_delta_recheck_cleared_total", //
		"repro_delta_recheck_roots_total",   //
		"repro_lp_solves_total",             // LP relaxation
		"repro_cover_search_nodes_total",    // exact searches
		"repro_packing_search_nodes_total",  //
		"repro_store_page_ins_total",        // shard residency
		"repro_store_resident_bytes",        // residency gauge
		"repro_wal_fsync_seconds",           // WAL durability
		"repro_server_http_requests_total",  // serving layer
		"repro_server_sessions",             // session lifecycle
	}
	for _, name := range families {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("/metrics is missing family %s", name)
		}
	}

	// The layers this test exercised must have counted: read the registry
	// directly (the exposition renders the same values).
	for _, name := range []string{
		"repro_engine_requests_total",
		"repro_enum_roots_total",
		"repro_enum_representatives_total",
		"repro_enum_occurrences_total",
		"repro_miner_extensions_total",
		"repro_miner_codes_total",
		"repro_miner_duplicates_total",
		"repro_miner_candidates_total",
		"repro_graph_mutations_total",
		"repro_graph_shard_builds_total",
		"repro_server_http_requests_total",
	} {
		if obs.Default.CounterValue(name) == 0 {
			t.Errorf("counter %s is zero after traffic that must bump it", name)
		}
	}
}

// TestWireBodiesIdenticalWithMetricsDisabled pins the determinism boundary:
// flipping the metrics gate must not change a single byte of any /v1
// response body (stats excepted — it intentionally reports cumulative
// counters). Two identical engines run the identical request sequence, one
// with metrics enabled and one with them disabled, and every body must
// match byte-for-byte.
func TestWireBodiesIdenticalWithMetricsDisabled(t *testing.T) {
	defer obs.SetEnabled(true)

	run := func(enabled bool) [][]byte {
		obs.SetEnabled(enabled)
		_, ts := obsServer(t, Config{})
		c := ts.Client()
		var bodies [][]byte
		collect := func(body []byte) { bodies = append(bodies, body) }

		collect(postOK(t, c, ts.URL+"/v1/evaluate", EvaluateRequest{
			Pattern: PatternWire{Edge: []int{1, 2}}, Measures: []string{"MNI", "MI"},
			Options: &OptionsWire{Parallelism: 1},
		}))
		collect(postOK(t, c, ts.URL+"/v1/mine", MineWire{MinSupport: 4, MaxPatternSize: 3}))
		collect(postOK(t, c, ts.URL+"/v1/mutate", MutateRequest{AddEdges: [][2]int{{0, 7}, {1, 9}}}))
		collect(postOK(t, c, ts.URL+"/v1/evaluate", EvaluateRequest{
			Pattern: PatternWire{Edge: []int{1, 2}}, Options: &OptionsWire{Parallelism: 1},
		}))
		var sr SessionResponse
		raw := postOK(t, c, ts.URL+"/v1/sessions", OpenSessionRequest{Mine: MineWire{MinSupport: 4, MaxPatternSize: 2}})
		mustUnmarshal(t, raw, &sr)
		collect(raw)
		collect(postOK(t, c, ts.URL+"/v1/sessions/"+sr.Session+"/refresh", nil))
		return bodies
	}

	on := run(true)
	off := run(false)
	if len(on) != len(off) {
		t.Fatalf("request counts differ: %d vs %d", len(on), len(off))
	}
	for i := range on {
		if !bytes.Equal(on[i], off[i]) {
			t.Errorf("body %d differs with metrics disabled:\n  enabled:  %s\n  disabled: %s", i, on[i], off[i])
		}
	}
}

// TestSlowQueryLog pins the slow-query record: with a threshold every
// request exceeds, the structured log must carry the route, the span tree
// (with the engine's phase spans) and, for evaluations, the chosen plan.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	_, ts := obsServer(t, Config{
		SlowQuery: time.Nanosecond,
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
	})
	c := ts.Client()

	postOK(t, c, ts.URL+"/v1/evaluate", EvaluateRequest{Pattern: PatternWire{Edge: []int{1, 2}}})

	logged := buf.String()
	for _, want := range []string{"slow query", "route=evaluate", "enumerate", "aggregate", "plan="} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query log is missing %q:\n%s", want, logged)
		}
	}
	if obs.Default.CounterValue("repro_server_slow_queries_total") == 0 {
		t.Error("repro_server_slow_queries_total did not count the slow query")
	}
}

// mustUnmarshal decodes JSON or fails the test.
func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
}
