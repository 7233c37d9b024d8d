package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// child runs one workload in a process of its own and returns its report.
// The child's listing goes to this process's standard output.
func child(cfg *config, workload string, seed uint64, trace bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-ops", strconv.Itoa(cfg.ops),
		"-scratch", cfg.scratch, "-short=" + strconv.FormatBool(cfg.short), "-trace=0",
	}
	if trace {
		args[len(args)-1] = "-trace=1"
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %t): %w", workload, seed, trace, err)
	}
	text := strings.TrimRight(out.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	fmt.Println(text[:max(cut, 0)])
	var rep report
	if err := json.Unmarshal([]byte(text[cut+1:]), &rep); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if !rep.Correct {
		return &rep, fmt.Errorf("%s (seed %d, trace %t): %d of %d ops failed", workload, seed, trace, rep.Failed, rep.Attempted)
	}
	return &rep, nil
}

// drive runs every workload, each in its own process. Without sets it makes
// one untraced and one traced run per workload and lists their metrics; with
// sets it repeats the untraced runs and records the noise.
func drive(cfg *config, sets, runs int) error {
	if sets <= 0 {
		for _, w := range workloadNames {
			for _, trace := range []bool{false, true} {
				if _, err := child(cfg, w, cfg.seed, trace); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return recordNoise(cfg, sets, runs)
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// benchmarkFile is the part of BENCHMARK.json the noise record needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// recordNoise makes sets x runs untraced runs of every workload, each run of
// a set with a seed of its own as the driver does, and one traced run at
// seeds 1 and 2; it writes benchmark/NOISE.md from them.
func recordNoise(cfg *config, sets, runs int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the noise record reads the bounds from BENCHMARK.json; run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Noise record\n\nWritten by `bash benchmark/run.sh -sets %d -runs %d -seconds %g`. Identical code in every run; run k of a set uses `--seed k`.\n", sets, runs, cfg.seconds)
	b.WriteString("Spread is (Q3 - Q1) / median over a set's runs, quartiles as Python's `statistics.quantiles(values, n=4)`;\n")
	b.WriteString("drift is how much worse the last set's median is than the first's (negative = better). Both must stay within the bound.\n")
	worst := 0.0
	for _, w := range workloadNames {
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = map[string][]float64{}
			for k := 1; k <= runs; k++ {
				rep, err := child(cfg, w, uint64(k), false)
				if err != nil {
					return err
				}
				for name, m := range rep.Metrics {
					values[s][name] = append(values[s][name], m.Value)
				}
			}
		}
		fmt.Fprintf(&b, "\n## %s\n\n| metric | bound |", w)
		for s := range values {
			fmt.Fprintf(&b, " set %d median [Q1, Q3] | spread |", s+1)
		}
		b.WriteString(" drift |\n|---|---|")
		b.WriteString(strings.Repeat("---|---|", sets) + "---|\n")
		for _, d := range bf.EndToEnd {
			fmt.Fprintf(&b, "| %s | %.0f%% |", d.Name, d.Bound*100)
			var medians []float64
			for s := range values {
				q1, q2, q3 := quartiles(values[s][d.Name])
				medians = append(medians, q2)
				spread := (q3 - q1) / q2
				if d.Name != "setup_s" {
					worst = max(worst, spread/d.Bound)
				}
				fmt.Fprintf(&b, " %.4g [%.4g, %.4g] | %.1f%% |", q2, q1, q3, spread*100)
			}
			drift := (medians[len(medians)-1] - medians[0]) / medians[0]
			if d.Better == "higher" {
				drift = -drift
			}
			worst = max(worst, drift/d.Bound)
			fmt.Fprintf(&b, " %+.1f%% |\n", drift*100)
		}
	}
	fmt.Fprintf(&b, "\nWorst spread or drift as a share of its bound: %.2f.\n", worst)

	b.WriteString("\n## Seed 1 against seed 2: the traced run's counts\n\n")
	b.WriteString("The data graphs are a fixed dataset and the seed draws their vertex numbering and the mutation and request schedules,\n")
	b.WriteString("so counts that depend only on the graph's shape repeat across seeds and counts that depend on layout or schedule move.\n")
	b.WriteString("\n| workload | metric | seed 1 | seed 2 |\n|---|---|---|---|\n")
	for _, w := range workloadNames {
		var reps [2]*report
		for k := range reps {
			if reps[k], err = child(cfg, w, uint64(k+1), true); err != nil {
				return err
			}
		}
		for _, d := range perLayer {
			a, c := reps[0].Metrics[d.name].Value, reps[1].Metrics[d.name].Value
			if d.unit == "count" && !strings.HasPrefix(d.name, "harness.") && (a != 0 || c != 0) {
				fmt.Fprintf(&b, "| %s | %s | %.6g | %.6g |\n", w, d.name, a, c)
			}
		}
	}
	return os.WriteFile("benchmark/NOISE.md", []byte(b.String()), 0o644)
}
