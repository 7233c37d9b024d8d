package support_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	support "repro"
	"repro/internal/obs"
)

// TestEngineWrapperParity proves the one surviving free-function wrapper is
// a pure re-skin of the Engine: Evaluate's answer is identical — byte for
// byte once encoded — to building a default Engine and issuing the
// equivalent Request directly.
func TestEngineWrapperParity(t *testing.T) {
	g := support.BarabasiAlbert(80, 2, 2, 13)
	p := support.SingleEdgePattern(1, 2)

	t.Run("evaluate", func(t *testing.T) {
		for _, names := range [][]string{nil, {"MNI", "MI"}, {"occurrences"}} {
			wrapped, err := support.Evaluate(g, p, names...)
			if err != nil {
				t.Fatalf("Evaluate(%v): %v", names, err)
			}
			eng, err := support.NewEngine(g, support.EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := eng.Do(&support.Request{Pattern: p, Measures: names})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(resp.Evaluation.Results)
			want, _ := json.Marshal(wrapped.Results)
			if string(got) != string(want) {
				t.Fatalf("measures %v: engine answer differs from wrapper:\n got %s\nwant %s", names, got, want)
			}
		}
	})
}

// TestDoOverrideStaysOnPinnedSnapshot pins "Do never locks": a per-request
// Options override — even one that leaves Shards at its zero value on a
// sharded engine — is answered on the engine's pinned snapshot, never on a
// graph re-frozen at another geometry, and therefore completes while a
// writer holds the engine's lock.
func TestDoOverrideStaysOnPinnedSnapshot(t *testing.T) {
	g := support.BarabasiAlbert(300, 2, 2, 17)
	eng, err := support.NewEngine(g, support.EngineOptions{Parallelism: 1, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	req := &support.Request{Pattern: support.SingleEdgePattern(1, 2), Measures: []string{support.MNI}}
	override := *req
	override.Options = &support.EngineOptions{Parallelism: 1, Streaming: true}

	// Sequential enumeration drains every non-empty shard exactly once, so
	// the drain counter tells which snapshot geometry a request ran on.
	drains := func(r *support.Request) uint64 {
		t.Helper()
		before := obs.Default.CounterValue("repro_enum_shard_drains_total")
		if _, err := eng.Do(r); err != nil {
			t.Fatal(err)
		}
		return obs.Default.CounterValue("repro_enum_shard_drains_total") - before
	}
	want := drains(req)
	if want < 2 {
		t.Fatalf("engine snapshot drained %d shards; the workload needs a sharded snapshot", want)
	}
	if got := drains(&override); got != want {
		t.Fatalf("override drained %d shards, the pinned snapshot has %d: the request ran on a re-frozen graph", got, want)
	}

	// Update runs mutate under the writer lock. An override issued from
	// inside it must still be answered, on the epoch published before.
	_, err = eng.Update(func(*support.Graph) error {
		done := make(chan *support.Response, 1)
		go func() {
			resp, err := eng.Do(&override)
			if err != nil {
				t.Error(err)
			}
			done <- resp
		}()
		select {
		case resp := <-done:
			if resp != nil && resp.Epoch != 1 {
				t.Errorf("override under the writer lock answered epoch %d, want 1", resp.Epoch)
			}
		case <-time.After(10 * time.Second):
			t.Error("Do with an Options override blocked on the writer lock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMineIgnoresStreamingOption pins the derived context choice at the
// Engine surface: mining with a measure that needs materialized contexts
// (MVC) succeeds under EngineOptions{Streaming: true} and equals the
// Streaming: false result, because the miner picks the context kind from
// the measure, not from the evaluation option.
func TestMineIgnoresStreamingOption(t *testing.T) {
	g := support.BarabasiAlbert(60, 2, 2, 11)
	mvc, err := support.NewMeasure(support.MVC)
	if err != nil {
		t.Fatal(err)
	}
	spec := &support.MineSpec{MinSupport: 3, MaxPatternSize: 3, Measure: mvc}
	mine := func(streaming bool) *support.MinerResult {
		t.Helper()
		eng, err := support.NewEngine(g, support.EngineOptions{Streaming: streaming})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := eng.Do(&support.Request{Mine: spec})
		if err != nil {
			t.Fatalf("mining MVC with Streaming=%v: %v", streaming, err)
		}
		return resp.Mining
	}
	want := mine(false)
	if len(want.Patterns) == 0 {
		t.Fatal("no frequent patterns; workload is vacuous")
	}
	assertSameMining(t, mine(true), want)
}

// assertSameMining compares two mining results modulo wall-clock stats.
func assertSameMining(t *testing.T, got, want *support.MinerResult) {
	t.Helper()
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("pattern count %d != %d", len(got.Patterns), len(want.Patterns))
	}
	for i := range got.Patterns {
		a, b := got.Patterns[i], want.Patterns[i]
		if a.Support != b.Support || a.Exact != b.Exact ||
			a.Occurrences != b.Occurrences || a.Instances != b.Instances ||
			a.Pattern.String() != b.Pattern.String() {
			t.Fatalf("pattern %d differs:\n got %+v %s\nwant %+v %s", i, a, a.Pattern, b, b.Pattern)
		}
	}
	gs, ws := got.Stats, want.Stats
	gs.Elapsed, gs.Generate, gs.Evaluate = 0, 0, 0
	ws.Elapsed, ws.Generate, ws.Evaluate = 0, 0, 0
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("stats differ: %+v != %+v", gs, ws)
	}
}

// TestEngineConcurrentEpochHandoff is the Engine-level serving soak: eight
// reader goroutines issue mixed evaluate/mine/session-refresh requests
// against one Engine while a writer applies mutation batches and refreezes.
// Every answer must be identical to a one-shot run against the immutable
// snapshot of the epoch it reports — no torn reads, no cross-epoch mixing.
// Run under -race this also proves the lock architecture sound.
func TestEngineConcurrentEpochHandoff(t *testing.T) {
	g := support.BarabasiAlbert(70, 2, 2, 21)
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := support.SingleEdgePattern(1, 2)
	spec := support.MineSpec{MinSupport: 5, MaxPatternSize: 3}

	const batches = 4
	snaps := make(map[uint64]*support.Snapshot)
	var snapMu sync.Mutex
	s0, e0 := eng.Current()
	snaps[e0] = s0

	type evalRec struct {
		epoch uint64
		json  string
	}
	type mineRec struct {
		epoch uint64
		res   *support.MinerResult
	}
	var recMu sync.Mutex
	var evals []evalRec
	var mines []mineRec

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Four evaluators: lockless snapshot-pinned reads.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := eng.Do(&support.Request{Pattern: p, Measures: []string{"MNI", "MVC"}})
				if err != nil {
					t.Errorf("evaluate: %v", err)
					return
				}
				b, _ := json.Marshal(resp.Evaluation.Results)
				recMu.Lock()
				evals = append(evals, evalRec{resp.Epoch, string(b)})
				recMu.Unlock()
			}
		}()
	}

	// Two one-shot miners.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := eng.Do(&support.Request{Mine: &spec})
				if err != nil {
					t.Errorf("mine: %v", err)
					return
				}
				recMu.Lock()
				mines = append(mines, mineRec{resp.Epoch, resp.Mining})
				recMu.Unlock()
			}
		}()
	}

	// Two warm sessions refreshing across the handoffs; a refresh must equal
	// a cold mine of the epoch it reports.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := eng.OpenSession(spec)
			if err != nil {
				t.Errorf("open session: %v", err)
				return
			}
			defer sess.Close()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, epoch, err := sess.Refresh()
				if err != nil {
					t.Errorf("refresh: %v", err)
					return
				}
				recMu.Lock()
				mines = append(mines, mineRec{epoch, res})
				recMu.Unlock()
			}
		}()
	}

	// The writer: wire a fresh vertex into the graph per batch, hand off.
	// The sleeps give the readers time to land requests on every epoch.
	for i := 0; i < batches; i++ {
		time.Sleep(20 * time.Millisecond)
		id := support.VertexID(2000 + i)
		epoch, err := eng.Update(func(g *support.Graph) error {
			if err := g.AddVertex(id, support.Label(1+i%2)); err != nil {
				return err
			}
			if err := g.AddEdge(id, support.VertexID(i)); err != nil {
				return err
			}
			return g.AddEdge(id, support.VertexID(i+9))
		})
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		snap, ep := eng.Current()
		if ep != epoch {
			t.Fatalf("Current epoch %d after Update returned %d", ep, epoch)
		}
		snapMu.Lock()
		snaps[ep] = snap
		snapMu.Unlock()
	}
	time.Sleep(20 * time.Millisecond)
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	// One-shot ground truth per epoch, computed on the retained snapshots.
	wantEval := make(map[uint64]string)
	wantMine := make(map[uint64]*support.MinerResult)
	for ep, snap := range snaps {
		pinned, err := support.NewSnapshotEngine(snap, support.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := pinned.Do(&support.Request{Pattern: p, Measures: []string{"MNI", "MVC"}})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(resp.Evaluation.Results)
		wantEval[ep] = string(b)
		if resp, err = pinned.Do(&support.Request{Mine: &spec}); err != nil {
			t.Fatal(err)
		}
		wantMine[ep] = resp.Mining
	}

	epochsSeen := make(map[uint64]int)
	for _, r := range evals {
		want, ok := wantEval[r.epoch]
		if !ok {
			t.Fatalf("evaluation reported unknown epoch %d", r.epoch)
		}
		if r.json != want {
			t.Fatalf("epoch %d evaluation differs from one-shot run:\n got %s\nwant %s", r.epoch, r.json, want)
		}
		epochsSeen[r.epoch]++
	}
	for _, r := range mines {
		want, ok := wantMine[r.epoch]
		if !ok {
			t.Fatalf("mining reported unknown epoch %d", r.epoch)
		}
		assertSameMining(t, r.res, want)
		epochsSeen[r.epoch]++
	}
	if len(evals) == 0 || len(mines) == 0 {
		t.Fatalf("readers barely ran: %d evals, %d mines", len(evals), len(mines))
	}
	if len(epochsSeen) < 2 {
		t.Fatalf("every answer landed on one epoch; the handoff never interleaved")
	}
	t.Logf("verified %d evaluations and %d mining results across epochs %v", len(evals), len(mines), keys(epochsSeen))
}

func keys(m map[uint64]int) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, fmt.Sprintf("%d:%d", k, v))
	}
	return out
}

// TestMineSpanOpensUp: a traced mining request renders the miner's own split
// of its time as generate and evaluate children of the mine span and its
// search counts as attributes, and adds the counts to the repro_miner_
// counters; the answer is the one an untraced request gets.
func TestMineSpanOpensUp(t *testing.T) {
	eng, err := support.NewEngine(support.BarabasiAlbert(60, 2, 3, 11), support.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req := &support.Request{Mine: &support.MineSpec{MinSupport: 3, MaxPatternSize: 3}}
	plain, err := eng.Do(req)
	if err != nil {
		t.Fatal(err)
	}

	counters := []string{"repro_miner_extensions_total", "repro_miner_codes_total", "repro_miner_duplicates_total", "repro_miner_candidates_total"}
	before := make([]uint64, len(counters))
	for i, name := range counters {
		before[i] = obs.Default.CounterValue(name)
	}
	tr := obs.NewTrace("request")
	traced, err := eng.DoContext(obs.ContextWithTrace(context.Background(), tr), req)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	assertSameMining(t, traced.Mining, plain.Mining)

	st := traced.Mining.Stats
	for i, want := range []int{st.Extensions, st.Codes, st.Duplicates, st.Candidates} {
		if got := obs.Default.CounterValue(counters[i]) - before[i]; got != uint64(want) || want == 0 {
			t.Errorf("%s grew by %d, the run counted %d", counters[i], got, want)
		}
	}
	lines := strings.Split(strings.TrimRight(tr.String(), "\n"), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[1], "  mine ") ||
		!strings.HasPrefix(lines[2], "    generate ") || !strings.HasPrefix(lines[3], "    evaluate ") {
		t.Fatalf("span tree:\n%s", tr.String())
	}
	want := fmt.Sprintf(" extensions=%d codes=%d duplicates=%d candidates=%d", st.Extensions, st.Codes, st.Duplicates, st.Candidates)
	if !strings.HasSuffix(lines[1], want) {
		t.Errorf("mine span %q should end in %q", lines[1], want)
	}
}
