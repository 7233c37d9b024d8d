package main

import (
	"fmt"
	"time"

	support "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/isomorph"
	"repro/internal/measures"
	"repro/internal/miner"
	"repro/internal/pattern"
)

// mineCold is the gminer / POST /v1/mine cold path: one op is one
// Engine.Do(Mine) with MNI over a small preferential-attachment graph,
// sequential. Candidate bookkeeping (pattern extension and canonical codes,
// the miner's dedupe) does most of the work; enumeration little; store and
// server none.
type mineCold struct {
	cfg  *config
	n    int
	spec support.MineSpec

	text []byte
	eng  *support.Engine

	refDigest string
	refStats  miner.Stats

	// Traced-run state: the last op's exact counts and the accumulators.
	lastStats  miner.Stats
	extensions int
	canonicals int
	enumerated int
	meter      *meter
	shares     shares
}

func newMineCold(cfg *config) *mineCold {
	m := &mineCold{cfg: cfg, n: 400, spec: support.MineSpec{MinSupport: 8, MaxPatternSize: 4}, meter: newMeter()}
	if cfg.short {
		m.n, m.spec = 40, support.MineSpec{MinSupport: 3, MaxPatternSize: 3}
	}
	return m
}

func (m *mineCold) generate() error {
	g := renumber(gen.BarabasiAlbert(m.n, 2, gen.UniformLabels{K: 3}, dataSeed), m.cfg.seed)
	var err error
	m.text, err = lgText(g)
	return err
}

// setup is what gminer does before it mines: parse the .lg text and freeze.
func (m *mineCold) setup() error {
	g, err := parseLG(m.text, "mine-cold")
	if err != nil {
		return err
	}
	m.eng, err = support.NewEngine(g, support.EngineOptions{Parallelism: 1})
	return err
}

func (m *mineCold) teardown() {
	if m.eng != nil {
		_ = m.eng.Close() // a graph-backed engine holds no resources
		m.eng = nil
	}
}

// setupRepeats is large because one set-up takes about a millisecond.
func (m *mineCold) setupRepeats() int { return 101 }

func (m *mineCold) prepareTrace() error { return nil }

func (m *mineCold) warm() error {
	for i := 0; i < 2; i++ {
		resp, err := m.eng.Do(&support.Request{Mine: &m.spec})
		if err != nil {
			return err
		}
		if i == 0 {
			m.refDigest, m.refStats = miningDigest(resp.Mining), resp.Mining.Stats
			if resp.Mining.Stats.Frequent == 0 {
				return fmt.Errorf("mine-cold: nothing is frequent; the workload would measure an empty search")
			}
		}
	}
	return nil
}

// check reports whether a mining answer equals the first op's.
func (m *mineCold) check(res *miner.Result, err error) bool {
	return err == nil && statsEqual(res.Stats, m.refStats) && miningDigest(res) == m.refDigest
}

func (m *mineCold) run(w *window) {
	w.loop(1, 1, func(int) (float64, bool) {
		resp, ms, err := m.doMine()
		return ms, err == nil && m.check(resp.Mining, nil)
	})
}

// doMine is the op: one cold mining request, timed.
func (m *mineCold) doMine() (*support.Response, float64, error) {
	t := time.Now()
	resp, err := m.eng.Do(&support.Request{Mine: &m.spec})
	return resp, msSince(t), err
}

// runTraced executes the op, then replays its parts layer by layer: the
// miner without the engine, Pattern.Extend over the mined frequent set, the
// miner's own canonical-code pass over the extensions, and the evaluation of
// the reconstructed candidate set through isomorph, core and measures.
func (m *mineCold) runTraced(w *window, tr *tracer) {
	w.loop(1, 1, func(i int) (float64, bool) {
		ok := true
		t := time.Now()
		tr.span(0, i, "harness.op", func(op int) {
			var resp *support.Response
			var err error
			var doMs float64
			m.meter.around(func() {
				doMs = tr.span(op, i, "support.do_mine", func(int) { resp, err = m.eng.Do(&support.Request{Mine: &m.spec}) })
			})
			if err != nil || !m.check(resp.Mining, nil) {
				ok = false
				return
			}
			snap, _ := m.eng.Current()
			cfg := miner.Config{MinSupport: m.spec.MinSupport, MaxPatternSize: m.spec.MaxPatternSize, EnumParallelism: 1}
			var res *miner.Result
			mineMs := tr.span(op, i, "miner.mine", func(int) {
				var mm *miner.Miner
				if mm, err = miner.NewSnapshot(snap, cfg); err == nil {
					res, err = mm.Mine()
				}
			})
			if !m.check(res, err) {
				ok = false
				return
			}
			m.lastStats = res.Stats

			labels := snap.Labels()
			var exts []*pattern.Pattern
			extendMs := tr.span(op, i, "pattern.extend", func(int) {
				for _, fp := range res.Patterns {
					for _, e := range fp.Pattern.Extend(labels) {
						if e.Result.Size() <= m.spec.MaxPatternSize {
							exts = append(exts, e.Result)
						}
					}
				}
			})
			m.extensions = len(exts)

			// The candidate set the miner evaluated: the one-edge seeds plus
			// every extension of a frequent pattern, deduplicated by code.
			seeds := seedPatterns(snap)
			seen := map[string]bool{}
			var candidates []*pattern.Pattern
			canonMs := tr.span(op, i, "pattern.canonical", func(int) {
				for _, p := range append(seeds, exts...) {
					if code := p.CanonicalCode(); !seen[code] {
						seen[code] = true
						candidates = append(candidates, p)
					}
				}
			})
			m.canonicals = len(seeds) + len(exts)

			var enumMs, ctxMs, mniMs float64
			tr.span(op, i, "miner.evaluate_replay", func(replay int) {
				opts := isomorph.Options{Parallelism: 1}
				m.enumerated = 0
				enumMs = tr.span(replay, i, "isomorph.enumerate", func(int) {
					for _, p := range candidates {
						isomorph.EnumerateSnapshotWorkers(snap, p, opts, func(int) func(*isomorph.Occurrence) bool {
							return func(*isomorph.Occurrence) bool { m.enumerated++; return true }
						})
					}
				})
				ctxs := make([]*core.Context, 0, len(candidates))
				ctxMs = tr.span(replay, i, "core.context_stream", func(int) {
					for _, p := range candidates {
						var c *core.Context
						if c, err = core.NewContext(nil, p, core.Options{Parallelism: 1, Streaming: true, Snapshot: snap}); err != nil {
							return
						}
						ctxs = append(ctxs, c)
					}
				})
				mniMs = tr.span(replay, i, "measures.mni", func(int) {
					for _, c := range ctxs {
						if _, cerr := (measures.MNI{}).Compute(c); cerr != nil {
							err = cerr
						}
					}
				})
			})
			if err != nil || len(candidates) != res.Stats.Candidates {
				ok = false
				return
			}

			m.shares.total += doMs
			m.shares.add("support", doMs-mineMs)
			m.shares.add("pattern", extendMs+canonMs)
			m.shares.add("isomorph", enumMs)
			m.shares.add("core", ctxMs-enumMs)
			m.shares.add("measures", mniMs)
			m.shares.add("miner", mineMs-extendMs-canonMs-ctxMs-mniMs)
		})
		return msSince(t), ok
	})
}

func (m *mineCold) finish() (int, error) { return 0, nil }

func (m *mineCold) layerMetrics(tr *tracer, out map[string]float64) float64 {
	st := m.lastStats
	out["support.do_mine_ms"] = tr.medianMs("support.do_mine")
	out["support.phase_mine_ms"] = m.meter.histMean("repro_engine_mine_seconds") * 1e3
	out["support.engine_overhead_us"] = (tr.medianMs("support.do_mine") - tr.medianMs("miner.mine")) * 1e3
	out["miner.mine_ms"] = tr.medianMs("miner.mine")
	out["miner.candidates"] = float64(st.Candidates)
	out["miner.duplicates"] = float64(st.Duplicates)
	out["miner.pruned"] = float64(st.Pruned)
	out["miner.frequent"] = float64(st.Frequent)
	if st.Candidates+st.Duplicates > 0 {
		out["miner.duplicate_share"] = 100 * float64(st.Duplicates) / float64(st.Candidates+st.Duplicates)
	}
	replay := tr.medianMs("core.context_stream") + tr.medianMs("measures.mni")
	out["miner.evaluate_replay_ms"] = replay
	out["miner.self_ms"] = tr.medianMs("miner.mine") - replay - tr.medianMs("pattern.extend") - tr.medianMs("pattern.canonical")
	out["pattern.extend_ms"] = tr.medianMs("pattern.extend")
	out["pattern.extensions"] = float64(m.extensions)
	if m.canonicals > 0 {
		out["pattern.canonical_us"] = tr.medianMs("pattern.canonical") * 1e3 / float64(m.canonicals)
	}
	out["isomorph.enumerate_ms"] = tr.medianMs("isomorph.enumerate")
	out["isomorph.occurrences"] = float64(m.enumerated)
	if m.enumerated > 0 {
		out["isomorph.ns_per_occurrence"] = tr.medianMs("isomorph.enumerate") * 1e6 / float64(m.enumerated)
	}
	ops, _ := tr.perOp("support.do_mine")
	if n := float64(len(ops)); n > 0 {
		out["isomorph.roots"] = m.meter.counters["repro_enum_roots_total"] / n
		out["isomorph.shard_drains"] = m.meter.counters["repro_enum_shard_drains_total"] / n
	}
	out["core.context_stream_ms"] = tr.medianMs("core.context_stream")
	out["core.accumulate_self_ms"] = tr.medianMs("core.context_stream") - tr.medianMs("isomorph.enumerate")
	out["measures.mni_ms"] = tr.medianMs("measures.mni")
	out["measures.exact_share"] = 100
	m.shares.fill(out)
	return tr.medianMs("support.do_mine")
}
