package main

import (
	"fmt"
	"strings"
	"time"

	support "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/isomorph"
	"repro/internal/lp"
	"repro/internal/measures"
	"repro/internal/pattern"
)

// evalCase is one evaluation request of the eval-measures op.
type evalCase struct {
	name     string
	small    bool // on the small graph, with the exact NP-hard measures
	pattern  *pattern.Pattern
	measures []string
}

// measureSpans maps a measure name to the span (and metric stem) it is
// timed under; the two raw counts share one.
var measureSpans = map[string]string{
	"MNI": "measures.mni", "MI": "measures.mi", "MVC": "measures.mvc", "MVC-approx": "measures.mvc_approx",
	"MIS": "measures.mis", "MIES": "measures.mies", "nuMVC": "measures.numvc", "nuMIES": "measures.numies",
	"occurrences": "measures.counts", "instances": "measures.counts",
}

// probeNodes is the branch-and-bound node budget of the exact-solver probes,
// a tenth of the measures' default: at the full budget the vertex cover
// search on the 100-vertex graph's path hypergraph takes 2.7 s, which would
// leave a traced run three samples.
const probeNodes = measures.DefaultMaxNodes / 10

// evalMeasures is the paper's own subject: one op evaluates the polynomial
// measures (MNI, MI, the LP relaxations, the approximate cover, the raw
// counts) of four patterns on a 240-vertex graph, and the exact MVC, MIS and
// MIES with the whole bounding chain of two patterns on a 100-vertex graph,
// all materialised and sequential. hypergraph, measures and lp dominate;
// isomorph runs in its materialising mode; pattern, miner and store are idle.
type evalMeasures struct {
	cfg          *config
	nBig, nSmall int
	cases        []evalCase

	textBig, textSmall []byte
	big, small         *support.Engine

	ref []string // per case, the first op's digest

	chainChecks int
	exact, all  int
	occurrences int
	hEdges      int
	hVertices   int
	meter       *meter
	shares      shares
}

func newEvalMeasures(cfg *config) *evalMeasures {
	poly := []string{"MNI", "MI", "nuMVC", "nuMIES", "MVC-approx", "occurrences", "instances"}
	chain := []string{"MNI", "MI", "nuMVC", "nuMIES", "MVC", "MIS", "MIES"}
	e := &evalMeasures{cfg: cfg, nBig: 240, nSmall: 100, meter: newMeter(), cases: []evalCase{
		{"edge", false, patEdge, poly},
		{"path", false, patPath, poly},
		{"star", false, patStar, poly},
		{"path4", false, patPath4, poly},
		{"edge-exact", true, patEdge, chain},
		{"path-exact", true, patPath, chain},
	}}
	if cfg.short {
		e.nBig, e.nSmall = 30, 20
	}
	return e
}

// generate keeps the generator's own vertex numbering: the LP solver's pivot
// order follows it, and renumbering the same graph moved op_p50_ms between
// 145 and 275 ms (a finding for the lp layer, and no use in a benchmark that
// must repeat across seeds). The op has no schedule either, so all the seed
// draws here is the order in which an op evaluates its cases.
func (e *evalMeasures) generate() error {
	gen.NewRNG(e.cfg.seed).Shuffle(len(e.cases), func(i, j int) { e.cases[i], e.cases[j] = e.cases[j], e.cases[i] })
	var err error
	if e.textBig, err = lgText(gen.BarabasiAlbert(e.nBig, 2, gen.UniformLabels{K: 2}, dataSeed)); err != nil {
		return err
	}
	e.textSmall, err = lgText(gen.BarabasiAlbert(e.nSmall, 2, gen.UniformLabels{K: 2}, dataSeed))
	return err
}

// setup is what gsupport does before it evaluates: parse and freeze.
func (e *evalMeasures) setup() error {
	for _, s := range []struct {
		text []byte
		eng  **support.Engine
	}{{e.textBig, &e.big}, {e.textSmall, &e.small}} {
		g, err := parseLG(s.text, "eval-measures")
		if err != nil {
			return err
		}
		if *s.eng, err = support.NewEngine(g, support.EngineOptions{Parallelism: 1}); err != nil {
			return err
		}
	}
	return nil
}

func (e *evalMeasures) teardown() { e.big, e.small = nil, nil }

// setupRepeats is large because one set-up takes about a millisecond.
func (e *evalMeasures) setupRepeats() int { return 101 }

func (e *evalMeasures) prepareTrace() error { return nil }

// engineOf returns the engine a case runs on.
func (e *evalMeasures) engineOf(c evalCase) *support.Engine {
	if c.small {
		return e.small
	}
	return e.big
}

// evaluate runs every case through Engine.Do and returns the summed latency.
func (e *evalMeasures) evaluate() ([]*support.Response, float64, error) {
	out := make([]*support.Response, len(e.cases))
	total := 0.0
	for k, c := range e.cases {
		t := time.Now()
		resp, err := e.engineOf(c).Do(&support.Request{Pattern: c.pattern, Measures: c.measures})
		total += msSince(t)
		if err != nil {
			return nil, total, fmt.Errorf("%s: %w", c.name, err)
		}
		out[k] = resp
	}
	return out, total, nil
}

// check verifies the bounding chain on the small graph's evaluations and
// that every value equals the first op's.
func (e *evalMeasures) check(k int, ev *measures.Evaluation) bool {
	if e.cases[k].small {
		if ev.VerifyBoundingChain() != nil {
			return false
		}
		e.chainChecks++
	}
	return evalDigest(ev) == e.ref[k]
}

func (e *evalMeasures) warm() error {
	resps, _, err := e.evaluate()
	if err != nil {
		return err
	}
	e.ref = make([]string, len(resps))
	for k, r := range resps {
		e.ref[k] = evalDigest(r.Evaluation)
		if r.Evaluation.Results["MNI"].Value == 0 {
			return fmt.Errorf("eval-measures: pattern %s has no occurrence", e.cases[k].name)
		}
	}
	return nil
}

func (e *evalMeasures) run(w *window) {
	w.loop(1, 1, func(int) (float64, bool) {
		resps, ms, err := e.evaluate()
		ok := err == nil
		for k := 0; ok && k < len(resps); k++ {
			ok = e.check(k, resps[k].Evaluation)
		}
		return ms, ok
	})
}

// runTraced executes every case through the engine, then as its
// decomposition: plan, materialising enumeration, context construction, each
// measure on the prepared context, and the hypergraph and LP solvers the
// measures call, directly on the context's occurrence hypergraph.
func (e *evalMeasures) runTraced(w *window, tr *tracer) {
	reg := measures.NewRegistry()
	w.loop(1, 1, func(i int) (float64, bool) {
		ok := true
		t := time.Now()
		tr.span(0, i, "harness.op", func(op int) {
			e.occurrences, e.hEdges, e.hVertices, e.exact, e.all = 0, 0, 0, 0, 0
			for k, c := range e.cases {
				if !e.tracedCase(tr, reg, op, i, k, c) {
					ok = false
					return
				}
			}
		})
		return msSince(t), ok
	})
}

// tracedCase is one case of a traced op; it reports whether every answer
// was correct.
func (e *evalMeasures) tracedCase(tr *tracer, reg *measures.Registry, op, i, k int, c evalCase) bool {
	eng := e.engineOf(c)
	var resp *support.Response
	var err error
	var doMs float64
	e.meter.around(func() {
		doMs = tr.span(op, i, "support.do_evaluate", func(int) {
			resp, err = eng.Do(&support.Request{Pattern: c.pattern, Measures: c.measures})
		})
	})
	if err != nil || !e.check(k, resp.Evaluation) {
		return false
	}
	snap, _ := eng.Current()
	opts := isomorph.Options{Parallelism: 1}
	tr.span(op, i, "isomorph.plan", func(int) { isomorph.Explain(snap, c.pattern, opts) })
	matMs := tr.span(op, i, "isomorph.materialize", func(int) {
		e.occurrences += len(isomorph.EnumerateSnapshot(snap, c.pattern, opts))
	})
	var ctx *core.Context
	ctxMs := tr.span(op, i, "core.context_full", func(int) {
		ctx, err = core.NewContext(nil, c.pattern, core.Options{Parallelism: 1, Snapshot: snap})
	})
	if err != nil {
		return false
	}
	h := ctx.OccurrenceHypergraph()
	e.hEdges += h.NumEdges()
	e.hVertices += h.NumVertices()

	measMs := 0.0
	solverRan := map[string]bool{}
	for _, name := range c.measures {
		m, merr := reg.New(name)
		if merr != nil {
			return false
		}
		var res measures.Result
		measMs += tr.span(op, i, measureSpans[name], func(int) { res, err = m.Compute(ctx) })
		if err != nil || res.Value != resp.Evaluation.Results[name].Value {
			return false
		}
		e.all++
		if res.Exact {
			e.exact++
		}
		// The exact measures skip their branch-and-bound search when the LP
		// bound certifies a greedy solution, and say so in the witness.
		solverRan[name] = !strings.Contains(res.Witness, "certified")
	}

	wants := func(names ...string) float64 {
		n := 0.0
		for _, name := range names {
			for _, have := range c.measures {
				if have == name {
					n++
				}
			}
		}
		return n
	}
	var fvc, fies lp.RelaxationResult
	fvcMs := tr.span(op, i, "lp.fvc", func(int) { fvc, err = lp.FractionalVertexCover(h) })
	if err != nil {
		return false
	}
	fiesMs := tr.span(op, i, "lp.fies", func(int) { fies, err = lp.FractionalIndependentEdgeSet(h) })
	// Strong duality (Theorem 4.6): the two relaxations have one value.
	if err != nil || fvc.Value-fies.Value > 1e-6 || fies.Value-fvc.Value > 1e-6 {
		return false
	}
	var greedy hypergraph.CoverResult
	greedyMs := tr.span(op, i, "hypergraph.greedy_cover", func(int) { greedy = h.GreedyVertexCover() })
	if !h.IsVertexCover(greedy.Cover) {
		return false
	}
	lpMs := fvcMs*wants("nuMVC", "MVC") + fiesMs*wants("nuMIES", "MIES", "MIS")
	hgMs := greedyMs * wants("MVC")
	if c.small {
		mvc, mies := resp.Evaluation.Results["MVC"].Value, resp.Evaluation.Results["MIES"].Value
		var cover hypergraph.CoverResult
		coverMs := tr.span(op, i, "hypergraph.exact_cover", func(int) { cover = h.MinimumVertexCover(probeNodes) })
		var matching hypergraph.MatchingResult
		matchMs := tr.span(op, i, "hypergraph.exact_matching", func(int) { matching = h.MaximumIndependentEdgeSet(probeNodes) })
		// A search the budget cut short still bounds the optimum from its side.
		if !h.IsVertexCover(cover.Cover) || float64(cover.Size) < mvc || (cover.Exact && float64(cover.Size) != mvc) {
			return false
		}
		if !h.IsIndependentEdgeSet(matching.Edges) || float64(matching.Size) > mies || (matching.Exact && float64(matching.Size) != mies) {
			return false
		}
		if solverRan["MVC"] {
			hgMs += coverMs
		}
		if solverRan["MIES"] {
			hgMs += matchMs
		}
	}

	e.shares.total += doMs
	e.shares.add("isomorph", matMs)
	e.shares.add("core", ctxMs-matMs)
	e.shares.add("lp", min(lpMs, measMs))
	e.shares.add("hypergraph", min(hgMs, measMs-min(lpMs, measMs)))
	e.shares.add("measures", measMs-lpMs-hgMs)
	e.shares.add("support", doMs-ctxMs-measMs)
	return true
}

func (e *evalMeasures) finish() (int, error) { return 0, nil }

func (e *evalMeasures) layerMetrics(tr *tracer, out map[string]float64) float64 {
	do := tr.medianMs("support.do_evaluate")
	out["support.do_evaluate_ms"] = do
	out["support.phase_enumerate_ms"] = e.meter.histMean("repro_engine_enumerate_seconds") * 1e3
	out["support.phase_aggregate_ms"] = e.meter.histMean("repro_engine_aggregate_seconds") * 1e3
	direct := tr.medianMs("core.context_full")
	for _, stem := range []string{"mni", "mi", "mvc", "mvc_approx", "mis", "mies", "numvc", "numies"} {
		ms := tr.medianMs("measures." + stem)
		out["measures."+stem+"_ms"] = ms
		direct += ms
	}
	direct += tr.medianMs("measures.counts")
	out["support.engine_overhead_us"] = (do - direct) * 1e3 / float64(len(e.cases))
	out["isomorph.plan_us"] = tr.meanCallUs("isomorph.plan")
	out["isomorph.materialize_ms"] = tr.medianMs("isomorph.materialize")
	out["isomorph.occurrences"] = float64(e.occurrences)
	if e.occurrences > 0 {
		out["isomorph.ns_per_occurrence"] = tr.medianMs("isomorph.materialize") * 1e6 / float64(e.occurrences)
	}
	if ops, _ := tr.perOp("support.do_evaluate"); len(ops) > 0 {
		out["isomorph.roots"] = e.meter.counters["repro_enum_roots_total"] / float64(len(ops))
		out["isomorph.shard_drains"] = e.meter.counters["repro_enum_shard_drains_total"] / float64(len(ops))
	}
	out["core.context_full_ms"] = tr.medianMs("core.context_full")
	out["hypergraph.edges"] = float64(e.hEdges)
	out["hypergraph.vertices"] = float64(e.hVertices)
	out["hypergraph.exact_cover_ms"] = tr.medianMs("hypergraph.exact_cover")
	out["hypergraph.exact_matching_ms"] = tr.medianMs("hypergraph.exact_matching")
	out["hypergraph.greedy_cover_ms"] = tr.medianMs("hypergraph.greedy_cover")
	out["lp.fvc_ms"] = tr.medianMs("lp.fvc")
	out["lp.fies_ms"] = tr.medianMs("lp.fies")
	if e.all > 0 {
		out["measures.exact_share"] = 100 * float64(e.exact) / float64(e.all)
	}
	out["measures.chain_checks"] = float64(e.chainChecks)
	e.shares.fill(out)
	return do
}
