package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	support "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/measures"
	"repro/internal/pattern"
	"repro/internal/store"
)

// evalStream is streamed, parallel evaluation over a store-backed engine
// whose residency budget is a quarter of the graph: one op streams MNI and
// the occurrence count of four patterns. isomorph's search and core's
// streaming accumulators do the work, in parallel, while store pages shards
// in and out; pattern, miner and the measure solvers are idle. It uses
// isomorph the other way round from eval-measures (streamed, not
// materialised), so a gain for one that costs the other shows.
type evalStream struct {
	cfg      *config
	n        int
	patterns []*pattern.Pattern
	names    []string

	g   *graph.Graph
	dir string
	eng *support.Engine

	ref []string

	freezeMs, writeMs, openMs float64
	occurrences               int
	meter                     *meter
	shares                    shares
}

func newEvalStream(cfg *config) *evalStream {
	e := &evalStream{cfg: cfg, n: 1 << 15, meter: newMeter(),
		patterns: []*pattern.Pattern{patEdge, patPath, patTriangle, patStar},
		names:    []string{"MNI", "occurrences"}}
	if cfg.short {
		e.n = 1 << 9
	}
	return e
}

func (e *evalStream) generate() error {
	e.g = renumber(gen.ErdosRenyi(e.n, 6/float64(e.n-1), gen.UniformLabels{K: 2}, dataSeed), e.cfg.seed)
	return nil
}

// setup freezes the graph to 16 shards, writes the shard store and opens it
// memory-mapped under the residency budget.
func (e *evalStream) setup() error {
	var err error
	if e.dir, err = os.MkdirTemp(e.cfg.scratch, "eval-stream-*"); err != nil {
		return err
	}
	e.g.DropSnapshots() // a repeated set-up must freeze cold, like the first
	t := time.Now()
	snap := e.g.FreezeSharded(graph.FreezeOptions{Shards: 16})
	e.freezeMs = msSince(t)
	t = time.Now()
	if err := store.Write(snap, e.dir); err != nil {
		return err
	}
	e.writeMs = msSince(t)
	t = time.Now()
	e.eng, err = support.OpenStoreEngine(e.dir, support.EngineOptions{ResidencyBudget: "25%", Streaming: true})
	e.openMs = msSince(t)
	return err
}

func (e *evalStream) teardown() {
	if e.eng != nil {
		_ = e.eng.Close() // unmapping a read-only store; nothing to lose
		e.eng = nil
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
		e.dir = ""
	}
}

func (e *evalStream) setupRepeats() int { return 15 }

func (e *evalStream) prepareTrace() error { return nil }

// evaluate streams every pattern through the engine and returns the
// digests and the summed latency.
func (e *evalStream) evaluate() ([]string, float64, error) {
	out := make([]string, len(e.patterns))
	total := 0.0
	for k, p := range e.patterns {
		t := time.Now()
		resp, err := e.eng.Do(&support.Request{Pattern: p, Measures: e.names})
		total += msSince(t)
		if err != nil {
			return nil, total, err
		}
		out[k] = evalDigest(resp.Evaluation)
	}
	return out, total, nil
}

func (e *evalStream) warm() error {
	for i := 0; i < 2; i++ {
		digests, _, err := e.evaluate()
		if err != nil {
			return err
		}
		if i == 0 {
			e.ref = digests
		}
	}
	return nil
}

func (e *evalStream) run(w *window) {
	w.loop(1, 1, func(int) (float64, bool) {
		digests, ms, err := e.evaluate()
		return ms, err == nil && slices.Equal(digests, e.ref)
	})
}

// runTraced executes each pattern through the engine, then as plan,
// enumeration with a counting yield, streaming context construction and the
// measures on the prepared context, all on the store's own snapshot.
func (e *evalStream) runTraced(w *window, tr *tracer) {
	snap, _ := e.eng.Current()
	w.loop(1, 1, func(i int) (float64, bool) {
		ok := true
		t := time.Now()
		tr.span(0, i, "harness.op", func(op int) {
			e.occurrences = 0
			for k, p := range e.patterns {
				var resp *support.Response
				var err error
				var doMs float64
				e.meter.around(func() {
					doMs = tr.span(op, i, "support.do_evaluate", func(int) {
						resp, err = e.eng.Do(&support.Request{Pattern: p, Measures: e.names})
					})
				})
				if err != nil || evalDigest(resp.Evaluation) != e.ref[k] {
					ok = false
					return
				}
				tr.span(op, i, "isomorph.plan", func(int) { isomorph.Explain(snap, p, isomorph.Options{}) })
				var mu sync.Mutex
				var counts []*int
				enumMs := tr.span(op, i, "isomorph.enumerate", func(int) {
					isomorph.EnumerateSnapshotWorkers(snap, p, isomorph.Options{}, func(int) func(*isomorph.Occurrence) bool {
						c := new(int)
						mu.Lock()
						counts = append(counts, c)
						mu.Unlock()
						return func(*isomorph.Occurrence) bool { *c++; return true }
					})
				})
				found := 0
				for _, c := range counts {
					found += *c
				}
				e.occurrences += found
				var ctx *core.Context
				ctxMs := tr.span(op, i, "core.context_stream", func(int) {
					ctx, err = core.NewContext(nil, p, core.Options{Streaming: true, Snapshot: snap})
				})
				if err != nil || ctx.NumOccurrences() != found {
					ok = false
					return
				}
				var ev *measures.Evaluation
				mniMs := tr.span(op, i, "measures.mni", func(int) {
					ev, err = measures.Evaluate(ctx, measures.MNI{}, measures.RawCount{})
				})
				if err != nil || evalDigest(ev) != e.ref[k] {
					ok = false
					return
				}
				e.shares.total += doMs
				e.shares.add("isomorph", enumMs)
				e.shares.add("core", ctxMs-enumMs)
				e.shares.add("measures", mniMs)
				e.shares.add("support", doMs-ctxMs-mniMs)
			}
		})
		return msSince(t), ok
	})
}

// finish checks the streamed, parallel, store-backed answers against a
// sequential evaluation of the in-memory snapshot: materialised, except for
// the star, whose 400k occurrences take 2.5 s and 300 MB to materialise and
// are streamed here too.
func (e *evalStream) finish() (int, error) {
	eng, err := support.NewSnapshotEngine(e.g.FreezeSharded(graph.FreezeOptions{Shards: 16}), support.EngineOptions{Parallelism: 1})
	if err != nil {
		return 0, err
	}
	failed := 0
	for k, p := range e.patterns {
		opts := eng.Options()
		opts.Streaming = p == patStar
		resp, err := eng.Do(&support.Request{Pattern: p, Measures: e.names, Options: &opts})
		if err != nil {
			return 0, fmt.Errorf("reference evaluation: %w", err)
		}
		if resp.Evaluation.Context.Materialized() == opts.Streaming || evalDigest(resp.Evaluation) != e.ref[k] {
			failed++
		}
	}
	return failed, nil
}

func (e *evalStream) layerMetrics(tr *tracer, out map[string]float64) float64 {
	do := tr.medianMs("support.do_evaluate")
	ctx, enum, mni := tr.medianMs("core.context_stream"), tr.medianMs("isomorph.enumerate"), tr.medianMs("measures.mni")
	out["graph.freeze_ms"] = e.freezeMs
	out["store.write_ms"] = e.writeMs
	out["store.open_ms"] = e.openMs
	out["support.do_evaluate_ms"] = do
	out["support.phase_enumerate_ms"] = e.meter.histMean("repro_engine_enumerate_seconds") * 1e3
	out["support.phase_aggregate_ms"] = e.meter.histMean("repro_engine_aggregate_seconds") * 1e3
	out["support.engine_overhead_us"] = (do - ctx - mni) * 1e3 / float64(len(e.patterns))
	out["isomorph.plan_us"] = tr.meanCallUs("isomorph.plan")
	out["isomorph.enumerate_ms"] = enum
	out["isomorph.occurrences"] = float64(e.occurrences)
	if e.occurrences > 0 {
		out["isomorph.ns_per_occurrence"] = enum * 1e6 / float64(e.occurrences)
	}
	out["core.context_stream_ms"] = ctx
	out["core.accumulate_self_ms"] = ctx - enum
	out["measures.mni_ms"] = mni
	out["measures.exact_share"] = 100
	if ops, _ := tr.perOp("support.do_evaluate"); len(ops) > 0 {
		n := float64(len(ops))
		out["isomorph.roots"] = e.meter.counters["repro_enum_roots_total"] / n
		out["isomorph.shard_drains"] = e.meter.counters["repro_enum_shard_drains_total"] / n
		out["store.page_ins"] = e.meter.counters["repro_store_page_ins_total"] / n
		out["store.evictions"] = e.meter.counters["repro_store_evictions_total"] / n
	}
	if rs, ok := e.eng.Residency(); ok && rs.MappedBytes > 0 {
		snap, _ := e.eng.Current()
		out["store.bytes_per_edge"] = float64(rs.MappedBytes) / float64(snap.NumEdges())
		out["store.resident_share"] = 100 * float64(rs.ResidentBytes) / float64(rs.MappedBytes)
	}
	e.shares.fill(out)
	return do
}
