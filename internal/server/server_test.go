package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	support "repro"
)

// encodeBody renders a response exactly like handleJSON does (json.Encoder
// with default settings, trailing newline), so expected bodies computed
// in-process are byte-comparable with what came over the wire.
func encodeBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// doJSON posts (or sends with the given method) a JSON body and returns the
// status code and raw response body.
func doJSON(t *testing.T, client *http.Client, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, raw
}

func postOK(t *testing.T, client *http.Client, url string, body any) []byte {
	t.Helper()
	code, raw := doJSON(t, client, http.MethodPost, url, body)
	if code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, code, raw)
	}
	return raw
}

func TestHTTPEndpoints(t *testing.T) {
	g := support.BarabasiAlbert(60, 2, 2, 3)
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	t.Run("healthz", func(t *testing.T) {
		code, raw := doJSON(t, c, http.MethodGet, ts.URL+"/v1/healthz", nil)
		if code != http.StatusOK || strings.TrimSpace(string(raw)) != "ok" {
			t.Fatalf("healthz: %d %q", code, raw)
		}
	})

	t.Run("stats", func(t *testing.T) {
		code, raw := doJSON(t, c, http.MethodGet, ts.URL+"/v1/stats", nil)
		if code != http.StatusOK {
			t.Fatalf("stats: %d %s", code, raw)
		}
		var st StatsResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.Epoch != 1 || st.Source != "graph" || st.Vertices != 60 {
			t.Fatalf("stats = %+v", st)
		}
	})

	t.Run("evaluate", func(t *testing.T) {
		raw := postOK(t, c, ts.URL+"/v1/evaluate", EvaluateRequest{
			Pattern:  PatternWire{Edge: []int{1, 2}},
			Measures: []string{"MNI"},
		})
		var er EvaluateResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatal(err)
		}
		if er.Epoch != 1 || er.Results["MNI"].Value <= 0 {
			t.Fatalf("evaluate = %+v", er)
		}

		// The same question asked in-process must produce the same bytes.
		er2, err := s.Evaluate(context.Background(), &EvaluateRequest{
			Pattern:  PatternWire{Edge: []int{1, 2}},
			Measures: []string{"MNI"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeBody(t, er2); !bytes.Equal(raw, want) {
			t.Fatalf("wire body differs from in-process encoding:\n got %s\nwant %s", raw, want)
		}
	})

	t.Run("evaluate-lg-pattern", func(t *testing.T) {
		lg := "t # wedge\nv 0 1\nv 1 2\nv 2 1\ne 0 1\ne 1 2\n"
		raw := postOK(t, c, ts.URL+"/v1/evaluate", EvaluateRequest{
			Pattern:  PatternWire{LG: lg},
			Measures: []string{"MNI", "MI"},
			Explain:  true,
		})
		var er EvaluateResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatal(err)
		}
		if len(er.Results) != 2 || er.Plan == "" {
			t.Fatalf("evaluate lg = %+v", er)
		}
	})

	t.Run("mine", func(t *testing.T) {
		raw := postOK(t, c, ts.URL+"/v1/mine", MineWire{MinSupport: 4, MaxPatternSize: 3})
		var mr MineResponse
		if err := json.Unmarshal(raw, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Epoch != 1 || len(mr.Patterns) == 0 || mr.Frequent != len(mr.Patterns) {
			t.Fatalf("mine = %+v", mr)
		}
	})

	t.Run("mutate", func(t *testing.T) {
		raw := postOK(t, c, ts.URL+"/v1/mutate", MutateRequest{
			AddVertices: []VertexWire{{ID: 900, Label: 1}},
			AddEdges:    [][2]int{{900, 0}, {900, 1}},
		})
		var mu MutateResponse
		if err := json.Unmarshal(raw, &mu); err != nil {
			t.Fatal(err)
		}
		if mu.Epoch != 2 || mu.AppliedVertices != 1 || mu.AppliedEdges != 2 {
			t.Fatalf("mutate = %+v", mu)
		}
		// Replaying the same batch is idempotent: nothing applied, but the
		// refreeze still hands off a new epoch.
		raw = postOK(t, c, ts.URL+"/v1/mutate", MutateRequest{
			AddVertices: []VertexWire{{ID: 900, Label: 1}},
			AddEdges:    [][2]int{{900, 0}},
		})
		if err := json.Unmarshal(raw, &mu); err != nil {
			t.Fatal(err)
		}
		if mu.Epoch != 3 || mu.AppliedVertices != 0 || mu.AppliedEdges != 0 {
			t.Fatalf("replayed mutate = %+v", mu)
		}
		// Removals ride the same batch path: drop one of the added edges and
		// then the vertex (cascading its remaining edge). Absent targets are
		// skipped without touching the graph, so the whole removal batch is
		// replayable too.
		removals := MutateRequest{
			RemoveEdges:    [][2]int{{900, 0}, {123456, 0}},
			RemoveVertices: []int{900, 123457},
		}
		raw = postOK(t, c, ts.URL+"/v1/mutate", removals)
		if err := json.Unmarshal(raw, &mu); err != nil {
			t.Fatal(err)
		}
		if mu.Epoch != 4 || mu.RemovedEdges != 1 || mu.RemovedVertices != 1 {
			t.Fatalf("removal mutate = %+v", mu)
		}
		raw = postOK(t, c, ts.URL+"/v1/mutate", removals)
		if err := json.Unmarshal(raw, &mu); err != nil {
			t.Fatal(err)
		}
		if mu.Epoch != 5 || mu.RemovedEdges != 0 || mu.RemovedVertices != 0 {
			t.Fatalf("replayed removal mutate = %+v", mu)
		}
	})

	t.Run("session-lifecycle", func(t *testing.T) {
		raw := postOK(t, c, ts.URL+"/v1/sessions", OpenSessionRequest{Mine: MineWire{MinSupport: 4, MaxPatternSize: 3}})
		var sr SessionResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Session == "" || sr.Tracked == 0 || len(sr.Result.Patterns) == 0 {
			t.Fatalf("open session = %+v", sr)
		}
		raw = postOK(t, c, ts.URL+"/v1/sessions/"+sr.Session+"/refresh", nil)
		var rr SessionResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Session != sr.Session || len(rr.Result.Patterns) != len(sr.Result.Patterns) {
			t.Fatalf("refresh = %+v", rr)
		}
		code, _ := doJSON(t, c, http.MethodDelete, ts.URL+"/v1/sessions/"+sr.Session, nil)
		if code != http.StatusOK {
			t.Fatalf("close: %d", code)
		}
		code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions/"+sr.Session+"/refresh", nil)
		if code != http.StatusNotFound {
			t.Fatalf("refresh after close: %d, want 404", code)
		}
	})

	t.Run("errors", func(t *testing.T) {
		code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/evaluate", EvaluateRequest{})
		if code != http.StatusBadRequest {
			t.Fatalf("empty pattern: %d, want 400", code)
		}
		code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/evaluate", EvaluateRequest{
			Pattern: PatternWire{Edge: []int{1, 2}, LG: "t # x\nv 0 1\n"},
		})
		if code != http.StatusBadRequest {
			t.Fatalf("ambiguous pattern: %d, want 400", code)
		}
		code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/mine", MineWire{MinSupport: -1})
		if code != http.StatusBadRequest {
			t.Fatalf("bad minsup: %d, want 400", code)
		}
		code, _ = doJSON(t, c, http.MethodDelete, ts.URL+"/v1/sessions/nope", nil)
		if code != http.StatusNotFound {
			t.Fatalf("unknown session: %d, want 404", code)
		}
		// The retired enumeration A/B switches are unknown wire keys: the
		// strict decoder rejects them with the same 400 body every time
		// rather than silently ignoring them.
		retired := json.RawMessage(`{"pattern":{"edge":[1,2]},"options":{"disable_planner":true}}`)
		code, first := doJSON(t, c, http.MethodPost, ts.URL+"/v1/evaluate", retired)
		if code != http.StatusBadRequest || !strings.Contains(string(first), "disable_planner") {
			t.Fatalf("retired option: %d %s, want 400 naming the field", code, first)
		}
		if _, again := doJSON(t, c, http.MethodPost, ts.URL+"/v1/evaluate", retired); !bytes.Equal(first, again) {
			t.Fatalf("retired option: error body not deterministic: %s vs %s", first, again)
		}
	})
}

// TestRequestBodyBounds pins what the strict decoder refuses beyond unknown
// keys: a body past maxRequestBytes is a 413 and a body with anything but
// whitespace after its JSON value a 400, both in the ErrorWire shape, while
// the same value followed by whitespace alone is served.
func TestRequestBodyBounds(t *testing.T) {
	eng, err := support.NewEngine(support.BarabasiAlbert(40, 2, 2, 9), support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{})
	defer s.Close()
	h := s.Handler()
	post := func(body string) (int, ErrorWire) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body)))
		var ew ErrorWire
		if rec.Code != http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &ew); err != nil || ew.Error == "" {
				t.Fatalf("status %d with a body that is no ErrorWire: %q", rec.Code, rec.Body.Bytes())
			}
		}
		return rec.Code, ew
	}
	const valid = `{"pattern":{"edge":[1,2]},"measures":["MNI"]}`
	if code, ew := post(valid + " \n\t"); code != http.StatusOK {
		t.Fatalf("valid body with trailing whitespace: %d %q, want 200", code, ew.Error)
	}
	for _, tail := range []string{"garbage", "{}", `{"pattern":{"edge":[1,2]}}`, "}"} {
		if code, ew := post(valid + tail); code != http.StatusBadRequest || !strings.Contains(ew.Error, "trailing data") {
			t.Fatalf("valid body followed by %q: %d %q, want 400 naming the trailing data", tail, code, ew.Error)
		}
	}
	huge := `{"pattern":{"lg":"` + strings.Repeat("x", maxRequestBytes) + `"}}`
	if code, ew := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte body: %d %q, want 413", len(huge), code, ew.Error)
	}
	if code, ew := post(valid + strings.Repeat(" ", maxRequestBytes)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a valid body padded past the bound: %d %q, want 413", code, ew.Error)
	}
}

// TestImmutableSource pins the error surface of snapshot-backed servers:
// evaluation and one-shot mining work, mutation and sessions are client
// errors, not panics.
func TestImmutableSource(t *testing.T) {
	g := support.BarabasiAlbert(40, 2, 2, 9)
	snap := g.FreezeSharded(support.FreezeOptions{})
	eng, err := support.NewSnapshotEngine(snap, support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	postOK(t, c, ts.URL+"/v1/evaluate", EvaluateRequest{Pattern: PatternWire{Edge: []int{1, 2}}})
	postOK(t, c, ts.URL+"/v1/mine", MineWire{MinSupport: 3, MaxPatternSize: 3})

	code, raw := doJSON(t, c, http.MethodPost, ts.URL+"/v1/mutate", MutateRequest{AddEdges: [][2]int{{0, 5}}})
	if code != http.StatusBadRequest {
		t.Fatalf("mutate on snapshot: %d %s, want 400", code, raw)
	}
	code, raw = doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions", OpenSessionRequest{Mine: MineWire{MinSupport: 3}})
	if code != http.StatusBadRequest {
		t.Fatalf("session on snapshot: %d %s, want 400", code, raw)
	}

	var st StatsResponse
	_, rawStats := doJSON(t, c, http.MethodGet, ts.URL+"/v1/stats", nil)
	if err := json.Unmarshal(rawStats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Source != "snapshot" {
		t.Fatalf("source = %q, want snapshot", st.Source)
	}
}

// TestServingByteIdentical is the acceptance test of the serving layer: nine
// concurrent clients (four evaluating, three one-shot mining, two holding
// warm sessions) hammer one gserved handler while a writer applies mutation
// batches through /v1/mutate, refreezing mid-run. Every wire response must be
// byte-identical to the in-process Engine answer for the epoch it reports —
// the snapshot epoch handoff may never leak a half-updated view.
func TestServingByteIdentical(t *testing.T) {
	g := support.BarabasiAlbert(70, 2, 2, 5)
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxMineInFlight: 4, MaxParallelism: 2}
	s := New(eng, cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	evalReq := EvaluateRequest{Pattern: PatternWire{Edge: []int{1, 2}}, Measures: []string{"MNI", "MI"}}
	mineReq := MineWire{MinSupport: 5, MaxPatternSize: 3}

	// Epoch -> pinned snapshot, recorded by the single writer (plus the
	// initial freeze), so expected answers can be recomputed per epoch after
	// the run.
	snaps := make(map[uint64]*support.Snapshot)
	var snapMu sync.Mutex
	snap0, e0 := eng.Current()
	snaps[e0] = snap0

	type record struct {
		kind  string // "evaluate", "mine" or "refresh"
		epoch uint64
		body  []byte
	}
	var recMu sync.Mutex
	var records []record
	add := func(kind string, epoch uint64, body []byte) {
		recMu.Lock()
		records = append(records, record{kind, epoch, body})
		recMu.Unlock()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Four evaluate clients: lockless snapshot-pinned reads.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{}
			for {
				select {
				case <-done:
					return
				default:
				}
				code, raw := doJSON(t, c, http.MethodPost, ts.URL+"/v1/evaluate", evalReq)
				if code != http.StatusOK {
					fail("evaluate: status %d: %s", code, raw)
					return
				}
				var er EvaluateResponse
				if err := json.Unmarshal(raw, &er); err != nil {
					fail("evaluate decode: %v", err)
					return
				}
				add("evaluate", er.Epoch, raw)
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Three one-shot mining clients: admission-gated jobs on the pinned
	// snapshot.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{}
			for {
				select {
				case <-done:
					return
				default:
				}
				code, raw := doJSON(t, c, http.MethodPost, ts.URL+"/v1/mine", mineReq)
				if code != http.StatusOK {
					fail("mine: status %d: %s", code, raw)
					return
				}
				var mr MineResponse
				if err := json.Unmarshal(raw, &mr); err != nil {
					fail("mine decode: %v", err)
					return
				}
				add("mine", mr.Epoch, raw)
			}
		}()
	}

	// Two warm-session clients: open once, refresh across refreezes, close.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{}
			raw := postOK(t, c, ts.URL+"/v1/sessions", OpenSessionRequest{Mine: mineReq})
			var sr SessionResponse
			if err := json.Unmarshal(raw, &sr); err != nil {
				fail("open decode: %v", err)
				return
			}
			add("refresh", sr.Result.Epoch, encodeBody(t, &sr.Result))
			for {
				select {
				case <-done:
					code, _ := doJSON(t, c, http.MethodDelete, ts.URL+"/v1/sessions/"+sr.Session, nil)
					if code != http.StatusOK {
						fail("session close: status %d", code)
					}
					return
				default:
				}
				code, raw := doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions/"+sr.Session+"/refresh", nil)
				if code != http.StatusOK {
					fail("refresh: status %d: %s", code, raw)
					return
				}
				var rr SessionResponse
				if err := json.Unmarshal(raw, &rr); err != nil {
					fail("refresh decode: %v", err)
					return
				}
				add("refresh", rr.Result.Epoch, encodeBody(t, &rr.Result))
				time.Sleep(3 * time.Millisecond)
			}
		}()
	}

	// The writer: four mutation batches over HTTP, each a fresh vertex wired
	// into the existing graph, each handing off a new epoch mid-run.
	writerClient := &http.Client{}
	for i := 0; i < 4; i++ {
		time.Sleep(25 * time.Millisecond)
		raw := postOK(t, writerClient, ts.URL+"/v1/mutate", MutateRequest{
			AddVertices: []VertexWire{{ID: 1000 + i, Label: 1 + i%2}},
			AddEdges:    [][2]int{{1000 + i, i}, {1000 + i, i + 7}},
		})
		var mu MutateResponse
		if err := json.Unmarshal(raw, &mu); err != nil {
			t.Fatalf("mutate decode: %v", err)
		}
		snap, ep := eng.Current()
		if ep != mu.Epoch {
			t.Fatalf("writer saw epoch %d, mutate reported %d", ep, mu.Epoch)
		}
		snapMu.Lock()
		snaps[ep] = snap
		snapMu.Unlock()
	}
	time.Sleep(25 * time.Millisecond)
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Recompute the expected body for every (kind, epoch) with an in-process
	// snapshot engine over the writer's pinned snapshots and compare
	// byte-for-byte.
	expected := make(map[string][]byte)
	for ep, snap := range snaps {
		eeng, err := support.NewSnapshotEngine(snap, eng.Options())
		if err != nil {
			t.Fatal(err)
		}
		es := New(eeng, cfg)
		ev, err := es.Evaluate(context.Background(), &evalReq)
		if err != nil {
			t.Fatal(err)
		}
		ev.Epoch = ep
		expected[fmt.Sprintf("evaluate@%d", ep)] = encodeBody(t, ev)
		mn, err := es.Mine(context.Background(), &mineReq)
		if err != nil {
			t.Fatal(err)
		}
		mn.Epoch = ep
		b := encodeBody(t, mn)
		expected[fmt.Sprintf("mine@%d", ep)] = b
		// A session refresh at epoch ep must equal a cold mine of epoch ep:
		// that is the incremental-maintenance contract.
		expected[fmt.Sprintf("refresh@%d", ep)] = b
		es.Close()
	}

	seen := make(map[string]int)
	for _, r := range records {
		key := fmt.Sprintf("%s@%d", r.kind, r.epoch)
		want, ok := expected[key]
		if !ok {
			t.Fatalf("response reported epoch %d, never published by the writer", r.epoch)
		}
		if !bytes.Equal(r.body, want) {
			t.Fatalf("%s: wire body differs from in-process engine answer:\n got %s\nwant %s", key, r.body, want)
		}
		seen[key]++
	}
	if len(records) < 20 {
		t.Fatalf("only %d responses recorded; the clients barely ran", len(records))
	}
	epochs := make(map[uint64]bool)
	for _, r := range records {
		epochs[r.epoch] = true
	}
	if len(epochs) < 2 {
		t.Fatalf("all responses landed on one epoch; the refreeze never interleaved (records: %v)", seen)
	}
	t.Logf("verified %d responses across %d epochs: %v", len(records), len(epochs), seen)
}

// TestAdmissionControl pins the mining semaphore: with MaxMineInFlight=2,
// eight concurrent one-shot mines never have more than two jobs admitted at
// once, and all eight complete.
func TestAdmissionControl(t *testing.T) {
	g := support.BarabasiAlbert(60, 2, 2, 7)
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{MaxMineInFlight: 2})
	defer s.Close()

	var maxSeen atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Mine(context.Background(), &MineWire{MinSupport: 4, MaxPatternSize: 3}); err != nil {
				t.Errorf("mine: %v", err)
			}
		}()
	}
	sampler := make(chan struct{})
	go func() {
		for {
			select {
			case <-sampler:
				return
			default:
			}
			if n := s.mineInFlight.Load(); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
		}
	}()
	wg.Wait()
	close(sampler)
	if maxSeen.Load() > 2 {
		t.Fatalf("admission let %d mining jobs run concurrently, cap is 2", maxSeen.Load())
	}
	if s.mineInFlight.Load() != 0 {
		t.Fatalf("in-flight count leaked: %d", s.mineInFlight.Load())
	}
}

// TestSessionCapAndEviction pins the session manager: the cap rejects
// opens, idle eviction closes sessions and releases every mutation-feed
// subscription back to the graph.
func TestSessionCapAndEviction(t *testing.T) {
	g := support.BarabasiAlbert(60, 2, 2, 7)
	base := g.OpenFeeds()
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{MaxSessions: 2, SessionIdleTTL: time.Minute})
	defer s.Close()

	// now is a controllable clock so the test drives idleness directly.
	clock := time.Unix(1000, 0)
	s.now = func() time.Time { return clock }

	mine := MineWire{MinSupport: 4, MaxPatternSize: 3}
	s1, err := s.OpenSession(context.Background(), &OpenSessionRequest{Mine: mine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenSession(context.Background(), &OpenSessionRequest{Mine: mine}); err != nil {
		t.Fatal(err)
	}
	if g.OpenFeeds() <= base {
		t.Fatalf("sessions hold no feeds?")
	}

	// Third open must hit the cap with a Too Many Requests status.
	_, err = s.OpenSession(context.Background(), &OpenSessionRequest{Mine: mine})
	se, ok := err.(statusError)
	if !ok || se.code != http.StatusTooManyRequests {
		t.Fatalf("over-cap open: %v, want 429 statusError", err)
	}

	// Nothing is idle yet: eviction is a no-op.
	if n := s.EvictIdleSessions(); n != 0 {
		t.Fatalf("evicted %d fresh sessions", n)
	}

	// Keep one session warm past the idle horizon; the other goes stale.
	clock = clock.Add(59 * time.Second)
	if _, err := s.RefreshSession(context.Background(), &SessionRequest{Session: s1.Session}); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(2 * time.Second)
	if n := s.EvictIdleSessions(); n != 1 {
		t.Fatalf("evicted %d sessions, want exactly the stale one", n)
	}
	if _, err := s.RefreshSession(context.Background(), &SessionRequest{Session: s1.Session}); err != nil {
		t.Fatalf("warm session evicted: %v", err)
	}

	// Closing the survivor returns the graph to its feed baseline.
	if _, err := s.CloseSession(context.Background(), &SessionRequest{Session: s1.Session}); err != nil {
		t.Fatal(err)
	}
	if got := g.OpenFeeds(); got != base {
		t.Fatalf("feeds leaked: %d open, baseline %d", got, base)
	}
}

// TestParallelismClamp pins the admission clamp arithmetic.
func TestParallelismClamp(t *testing.T) {
	cases := []struct{ req, max, want int }{
		{0, 4, 4},  // auto becomes the cap
		{64, 4, 4}, // over-ask is clamped
		{2, 4, 2},  // under the cap passes through
		{0, 0, 0},  // no cap: auto stays auto
		{64, -1, 64} /* negative cap: unclamped */}
	for _, c := range cases {
		if got := clampParallelism(c.req, c.max); got != c.want {
			t.Errorf("clampParallelism(%d, %d) = %d, want %d", c.req, c.max, got, c.want)
		}
	}
}
