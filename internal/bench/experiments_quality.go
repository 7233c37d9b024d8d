package bench

import (
	"io"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/miner"
	"repro/internal/pattern"
)

// figuresExperiment (F1-F10) recomputes every worked figure from the paper
// and prints the support values of all measures side by side.
func figuresExperiment() Experiment {
	return Experiment{
		ID:    "figures",
		Claim: "Figures 1-10: support values of the paper's worked examples",
		Run: func(w io.Writer, cfg Config) error {
			t := NewTable("paper figures",
				"figure", "occurrences", "instances", "MNI", "MI", "MVC", "MIS", "MIES", "nuMVC", "nuMIES")
			for _, wl := range figureWorkloads() {
				ctx, err := core.NewContext(wl.g, wl.p, core.Options{})
				if err != nil {
					return err
				}
				ev, err := measures.Evaluate(ctx)
				if err != nil {
					return err
				}
				t.AddRow(wl.name,
					ctx.NumOccurrences(), ctx.NumInstances(),
					ev.Results[measures.NameMNI].Value,
					ev.Results[measures.NameMI].Value,
					ev.Results[measures.NameMVC].Value,
					ev.Results[measures.NameMIS].Value,
					ev.Results[measures.NameMIES].Value,
					ev.Results[measures.NameNuMVC].Value,
					ev.Results[measures.NameNuMIES].Value)
			}
			return render(w, cfg, t)
		},
	}
}

// chainExperiment (E1) verifies the full bounding chain
// σ_MIS = σ_MIES ≤ ν_MIES = ν_MVC ≤ σ_MVC ≤ σ_MI ≤ σ_MNI on every standard
// workload and reports the measure values.
func chainExperiment() Experiment {
	return Experiment{
		ID:    "chain",
		Claim: "Section 4.4: bounding chain MIS=MIES <= nuMIES=nuMVC <= MVC <= MI <= MNI",
		Run: func(w io.Writer, cfg Config) error {
			t := NewTable("bounding chain",
				"workload", "occ", "inst", "MIS", "MIES", "nuMIES", "nuMVC", "MVC", "MI", "MNI", "chain")
			for _, wl := range standardWorkloads(cfg) {
				ctx, err := core.NewContext(wl.g, wl.p, core.Options{})
				if err != nil {
					return err
				}
				ev, err := measures.Evaluate(ctx)
				if err != nil {
					return err
				}
				status := "ok"
				if err := ev.VerifyBoundingChain(); err != nil {
					status = "VIOLATED: " + err.Error()
				}
				t.AddRow(wl.name,
					ctx.NumOccurrences(), ctx.NumInstances(),
					ev.Results[measures.NameMIS].Value,
					ev.Results[measures.NameMIES].Value,
					ev.Results[measures.NameNuMIES].Value,
					ev.Results[measures.NameNuMVC].Value,
					ev.Results[measures.NameMVC].Value,
					ev.Results[measures.NameMI].Value,
					ev.Results[measures.NameMNI].Value,
					status)
			}
			return render(w, cfg, t)
		},
	}
}

// approxExperiment (E3) compares the exact MVC against its polynomial
// k-approximation (take all vertices of an uncovered edge) and the greedy
// cover, reporting the observed approximation ratios; the ratio never exceeds
// the pattern size k.
func approxExperiment() Experiment {
	return Experiment{
		ID:    "approx",
		Claim: "Section 3.3: MVC admits a k-competitive polynomial approximation",
		Run: func(w io.Writer, cfg Config) error {
			t := NewTable("MVC approximation quality",
				"workload", "k", "MVC", "matching-approx", "ratio", "bound k", "greedy-MIES", "MIES", "packing-ratio")
			for _, wl := range standardWorkloads(cfg) {
				ctx, err := core.NewContext(wl.g, wl.p, core.Options{})
				if err != nil {
					return err
				}
				exact, err := measures.MVC{}.Compute(ctx)
				if err != nil {
					return err
				}
				approx, err := measures.MVC{Approximate: true}.Compute(ctx)
				if err != nil {
					return err
				}
				mies, err := measures.MIES{}.Compute(ctx)
				if err != nil {
					return err
				}
				miesGreedy, err := measures.MIES{Approximate: true}.Compute(ctx)
				if err != nil {
					return err
				}
				ratio := 0.0
				if exact.Value > 0 {
					ratio = approx.Value / exact.Value
				}
				packing := 0.0
				if mies.Value > 0 {
					packing = miesGreedy.Value / mies.Value
				}
				t.AddRow(wl.name, wl.p.Size(), exact.Value, approx.Value, ratio, wl.p.Size(), miesGreedy.Value, mies.Value, packing)
			}
			return render(w, cfg, t)
		},
	}
}

// lpExperiment (E4) checks Theorem 4.6: the LP relaxations of MVC and MIES
// coincide (strong duality) and are sandwiched between MIES and MVC.
func lpExperiment() Experiment {
	return Experiment{
		ID:    "lp",
		Claim: "Theorem 4.6: MIES <= nuMIES = nuMVC <= MVC (LP relaxation tightness)",
		Run: func(w io.Writer, cfg Config) error {
			t := NewTable("LP relaxations",
				"workload", "MIES", "nuMIES", "nuMVC", "MVC", "duality-gap", "integrality-gap")
			for _, wl := range standardWorkloads(cfg) {
				ctx, err := core.NewContext(wl.g, wl.p, core.Options{})
				if err != nil {
					return err
				}
				mies, err := measures.MIES{}.Compute(ctx)
				if err != nil {
					return err
				}
				numies, err := measures.NuMIES{}.Compute(ctx)
				if err != nil {
					return err
				}
				numvc, err := measures.NuMVC{}.Compute(ctx)
				if err != nil {
					return err
				}
				mvc, err := measures.MVC{}.Compute(ctx)
				if err != nil {
					return err
				}
				dualityGap := numvc.Value - numies.Value
				integralityGap := 0.0
				if numvc.Value > 0 {
					integralityGap = mvc.Value / numvc.Value
				}
				t.AddRow(wl.name, mies.Value, numies.Value, numvc.Value, mvc.Value, dualityGap, integralityGap)
			}
			return render(w, cfg, t)
		},
	}
}

// overestimateExperiment (E5) sweeps the star-overlap generator's fan-out and
// reports how far MNI and MI drift above the overlap-aware measures,
// reproducing the paper's "MNI can overestimate arbitrarily" argument
// (Figures 2 and 6) quantitatively.
func overestimateExperiment() Experiment {
	return Experiment{
		ID:    "overestimate",
		Claim: "Figures 2 and 6: MNI (and MI under partial overlap) overestimate while MVC/MIS stay near the independent-instance count",
		Run: func(w io.Writer, cfg Config) error {
			fanouts := []int{2, 4, 8, 16, 32}
			if cfg.Quick {
				fanouts = []int{2, 4, 8}
			}
			patterns := standardPatterns()
			t := NewTable("MNI overestimation vs fan-out (double-star workload, edge pattern)",
				"fanout", "occurrences", "instances", "MNI", "MI", "MVC", "MIS", "MNI/MIS")
			for _, f := range fanouts {
				g := gen.DoubleStar(f, cfg.Seed)
				ctx, err := core.NewContext(g, patterns["edge"], core.Options{})
				if err != nil {
					return err
				}
				ev, err := measures.Evaluate(ctx,
					measures.MNI{}, measures.MI{}, measures.MVC{}, measures.MIS{})
				if err != nil {
					return err
				}
				mis := ev.Results[measures.NameMIS].Value
				ratio := 0.0
				if mis > 0 {
					ratio = ev.Results[measures.NameMNI].Value / mis
				}
				t.AddRow(f, ctx.NumOccurrences(), ctx.NumInstances(),
					ev.Results[measures.NameMNI].Value,
					ev.Results[measures.NameMI].Value,
					ev.Results[measures.NameMVC].Value,
					mis, ratio)
			}
			if err := render(w, cfg, t); err != nil {
				return err
			}

			// Second series: the triangle pattern on a clique chain, where MNI
			// counts automorphism-inflated images while one instance exists
			// per clique.
			sizes := []int{3, 4, 5, 6}
			if cfg.Quick {
				sizes = []int{3, 4}
			}
			t2 := NewTable("MNI overestimation vs clique size (clique-chain workload, triangle pattern)",
				"clique-size", "occurrences", "instances", "MNI", "MI", "MVC", "MIS")
			for _, k := range sizes {
				g := gen.CliqueChain(3, k, cfg.Seed)
				ctx, err := core.NewContext(g, patterns["triangle"], core.Options{})
				if err != nil {
					return err
				}
				ev, err := measures.Evaluate(ctx,
					measures.MNI{}, measures.MI{}, measures.MVC{}, measures.MIS{})
				if err != nil {
					return err
				}
				t2.AddRow(k, ctx.NumOccurrences(), ctx.NumInstances(),
					ev.Results[measures.NameMNI].Value,
					ev.Results[measures.NameMI].Value,
					ev.Results[measures.NameMVC].Value,
					ev.Results[measures.NameMIS].Value)
			}
			return render(w, cfg, t2)
		},
	}
}

// miningExperiment (E6) runs the frequent-pattern miner end to end with each
// support measure and reports result counts and pruning statistics across
// thresholds. Anti-monotonic pruning keeps the candidate count bounded for
// every measure; stricter (smaller) measures report fewer frequent patterns
// at the same threshold.
func miningExperiment() Experiment {
	return Experiment{
		ID:    "mining",
		Claim: "Chapter 1/2: anti-monotonic measures drive safe pruning in single-graph frequent pattern mining",
		Run: func(w io.Writer, cfg Config) error {
			n := quickInt(cfg, 50, 120)
			g := gen.BarabasiAlbert(n, 2, gen.UniformLabels{K: 3}, cfg.Seed)
			thresholds := []float64{2, 3, 5}
			if cfg.Quick {
				thresholds = []float64{3}
			}
			configs := []struct {
				name    string
				measure measures.Measure
			}{
				{"MNI", measures.MNI{}},
				{"MI", measures.MI{}},
				{"MVC-approx", measures.MVC{Approximate: true}},
				{"MIES-greedy", measures.MIES{Approximate: true}},
			}
			t := NewTable("frequent pattern mining (Barabási–Albert graph)",
				"measure", "threshold", "frequent", "candidates", "pruned", "duplicates")
			for _, mc := range configs {
				for _, th := range thresholds {
					m, err := miner.New(g, miner.Config{
						MinSupport:     th,
						MaxPatternSize: 4,
						Measure:        mc.measure,
					})
					if err != nil {
						return err
					}
					res, err := m.Mine()
					if err != nil {
						return err
					}
					t.AddRow(mc.name, th, res.Stats.Frequent, res.Stats.Candidates,
						res.Stats.Pruned, res.Stats.Duplicates)
				}
			}
			return render(w, cfg, t)
		},
	}
}

// overlapExperiment (F9/F10) counts simple, harmful and structural overlaps
// between occurrence pairs on the figure fixtures and a generated workload,
// and reports the MIS value under each overlap notion; weaker overlap notions
// give sparser overlap graphs and therefore larger supports.
func overlapExperiment() Experiment {
	return Experiment{
		ID:    "overlap",
		Claim: "Section 4.5: structural overlap differs from harmful overlap; both are weaker than simple overlap",
		Run: func(w io.Writer, cfg Config) error {
			t := NewTable("overlap taxonomy",
				"workload", "pairs", "simple", "harmful", "structural", "MIS", "MIS-HO", "MIS-SO")
			wls := figureWorkloads()
			wls = append(wls, workload{
				name: "geo/path",
				g:    gen.RandomGeometric(quickInt(cfg, 25, 40), 0.2, gen.UniformLabels{K: 3}, cfg.Seed),
				p:    standardPatterns()["path"],
			})
			for _, wl := range wls {
				ctx, err := core.NewContext(wl.g, wl.p, core.Options{})
				if err != nil {
					return err
				}
				counts, err := ctx.CountOverlaps()
				if err != nil {
					return err
				}
				mis, err := measures.MIS{}.Compute(ctx)
				if err != nil {
					return err
				}
				misHO, err := measures.MIS{Overlap: measures.HarmfulOverlap}.Compute(ctx)
				if err != nil {
					return err
				}
				misSO, err := measures.MIS{Overlap: measures.StructuralOverlap}.Compute(ctx)
				if err != nil {
					return err
				}
				t.AddRow(wl.name, counts.Pairs, counts.Simple, counts.Harmful, counts.Structural,
					mis.Value, misHO.Value, misSO.Value)
			}
			return render(w, cfg, t)
		},
	}
}

// antimonoExperiment (E7) grows random extension chains on random graphs and
// counts anti-monotonicity violations per measure. The anti-monotonic
// measures must report zero violations; the raw occurrence and instance
// counts are included to show why they are not valid support measures.
func antimonoExperiment() Experiment {
	return Experiment{
		ID:    "antimono",
		Claim: "Theorems 3.2, 3.5, 4.2: MI, MVC, MIES (and MNI, MIS) are anti-monotonic; raw counts are not",
		Run: func(w io.Writer, cfg Config) error {
			graphs := []workload{}
			n := quickInt(cfg, 40, 90)
			graphs = append(graphs,
				workload{name: "er", g: gen.ErdosRenyi(n, 6.0/float64(n), gen.UniformLabels{K: 2}, cfg.Seed)},
				workload{name: "ba", g: gen.BarabasiAlbert(n, 2, gen.UniformLabels{K: 2}, cfg.Seed+1)},
				workload{name: "clique-chain", g: gen.CliqueChain(4, 4, cfg.Seed+2)},
			)
			ms := []measures.Measure{
				measures.MNI{}, measures.MI{}, measures.MVC{}, measures.MIES{}, measures.MIS{},
				measures.RawCount{Instances: false}, measures.RawCount{Instances: true},
			}
			chains := quickInt(cfg, 4, 8)

			t := NewTable("anti-monotonicity checks over random extension chains",
				"measure", "pairs-checked", "violations", "skipped-inexact")
			type tally struct{ pairs, violations, skipped int }
			tallies := make(map[string]*tally)
			for _, m := range ms {
				tallies[m.Name()] = &tally{}
			}

			for _, wl := range graphs {
				pairs, err := extensionPairs(wl.g, chains, cfg.Seed)
				if err != nil {
					return err
				}
				for _, pr := range pairs {
					reports, err := measures.CheckAntiMonotonicityAll(wl.g, pr.sub, pr.super, ms)
					if err != nil {
						return err
					}
					for _, rep := range reports {
						tl := tallies[rep.Measure]
						tl.pairs++
						if !rep.Holds {
							// A violation is only meaningful when both values
							// are exact; truncated NP-hard solves report upper
							// bounds that can spuriously exceed the subpattern
							// value.
							if rep.Exact {
								tl.violations++
							} else {
								tl.skipped++
							}
						}
					}
				}
			}
			for _, m := range ms {
				tl := tallies[m.Name()]
				t.AddRow(m.Name(), tl.pairs, tl.violations, tl.skipped)
			}
			return render(w, cfg, t)
		},
	}
}

// patternPair is a (subpattern, superpattern) pair produced by a random
// extension chain.
type patternPair struct {
	sub   *pattern.Pattern
	super *pattern.Pattern
}

// extensionPairs grows `chains` random extension chains over the labels of g
// and returns every consecutive (subpattern, superpattern) pair. Chains start
// from single-edge patterns that occur in g and are extended up to four
// nodes, so the NP-hard measures stay exact during the anti-monotonicity
// experiment.
func extensionPairs(g *graph.Graph, chains int, seed uint64) ([]patternPair, error) {
	rng := gen.NewRNG(seed)
	labels := g.Labels()
	var seeds []*pattern.Pattern
	seen := make(map[string]bool)
	for _, e := range g.Edges() {
		p := pattern.SingleEdge(g.MustLabelOf(e.U), g.MustLabelOf(e.V))
		code := p.CanonicalCode()
		if !seen[code] {
			seen[code] = true
			seeds = append(seeds, p)
		}
	}
	if len(seeds) == 0 {
		return nil, nil
	}
	var pairs []patternPair
	for c := 0; c < chains; c++ {
		current := seeds[rng.Intn(len(seeds))]
		for current.Size() < 4 {
			exts := current.Extend(labels)
			if len(exts) == 0 {
				break
			}
			next := exts[rng.Intn(len(exts))].Result
			pairs = append(pairs, patternPair{sub: current, super: next})
			current = next
		}
	}
	return pairs, nil
}

func quickInt(cfg Config, quick, full int) int {
	if cfg.Quick {
		return quick
	}
	return full
}
