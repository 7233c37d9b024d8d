// Command benchmark is the repository's one trusted benchmark: five
// workloads, six end-to-end metrics on each, and a traced run that prices
// every layer. See README.md in this directory for the catalogue.
//
// Run one workload the way the driver does:
//
//	bash benchmark/run.sh --workload mine-cold --seed 1 --seconds 15 --trace 0
//
// Without --workload every workload is run, untraced then traced, each in a
// process of its own so that heap, VmHWM and the process-global obs.Default
// counters start clean, and every metric is printed by name with its unit.
// With -sets and -runs the untraced runs are repeated and NOISE.md is
// written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloadNames lists the workloads in reporting order.
var workloadNames = []string{"mine-cold", "eval-measures", "eval-stream", "refresh-durable", "serve-rw"}

// newWorkload returns the named workload, or nil.
func newWorkload(cfg *config) workload {
	switch cfg.workload {
	case "mine-cold":
		return newMineCold(cfg)
	case "eval-measures":
		return newEvalMeasures(cfg)
	case "eval-stream":
		return newEvalStream(cfg)
	case "refresh-durable":
		return newRefreshDurable(cfg)
	case "serve-rw":
		return newServeRW(cfg)
	}
	return nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run prints as its last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// speedPct is the box's speed over the timed window, in percent of the
	// reference box; the listing shows it, the result line does not.
	speedPct float64
}

func main() {
	cfg := &config{}
	var trace int
	var sets, runs int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, each in its own process)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the vertex numbering and the mutation and request schedules")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed window")
	flag.IntVar(&cfg.ops, "ops", 0, "fixed-work mode: run this many ops instead of a timed window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced decomposition and reports per-layer metrics")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build", "directory for store directories and span files")
	flag.BoolVar(&cfg.short, "short", false, "self-test sizes: tiny graphs")
	flag.IntVar(&sets, "sets", 0, "with -runs: repeat the untraced runs in this many sets and write NOISE.md")
	flag.IntVar(&runs, "runs", 5, "runs per workload in each set of -sets")
	flag.Parse()
	cfg.trace = trace != 0

	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fatal(err)
	}
	if cfg.workload == "" {
		if err := drive(cfg, sets, runs); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	printReport(cfg, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// fatal reports err and exits non-zero without printing a result line.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printReport lists every metric by name with its unit, one per line.
func printReport(cfg *config, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%t attempted=%d failed=%d correct=%t\n",
		cfg.workload, cfg.seed, cfg.trace, rep.Attempted, rep.Failed, rep.Correct)
	fmt.Printf("# box speed %.1f%% of reference; times are scaled to reference speed (clock time = value x %.3f)\n",
		rep.speedPct, 100/rep.speedPct)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}

// runWorkload runs one workload in this process and returns its report.
func runWorkload(cfg *config) (rep *report, err error) {
	// The same two threads on every box with at least two cores; GOGC stays
	// at its default.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	wl := newWorkload(cfg)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	defer wl.teardown()

	if err := wl.generate(); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	repeats := wl.setupRepeats()
	if cfg.trace {
		repeats = 1
	} else if cfg.short {
		repeats = min(repeats, 3)
	}
	box, err := newBoxSpeed()
	if err != nil {
		return nil, err
	}
	defer box.close()
	box.sample()
	var setups []float64
	for k := 0; k < repeats; k++ {
		if k > 0 {
			wl.teardown()
		}
		box.sampleIfDue()
		t := time.Now()
		if err := wl.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, msSince(t)/1e3)
	}
	setupSlow := box.take()
	if cfg.trace {
		if err := wl.prepareTrace(); err != nil {
			return nil, fmt.Errorf("prepare trace: %w", err)
		}
	}
	if err := wl.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var ws, base windowStats
	var rss float64
	var tr *tracer
	if !cfg.trace {
		ws = measure(cfg, box, cfg.seconds, wl.run)
		// Read before the final checks, whose cold re-evaluations would
		// otherwise set the high-water mark.
		if rss, err = peakRSSMB(); err != nil {
			return nil, err
		}
		rss -= box.residentMB() // the harness's own sweep buffer is not the program's
	} else {
		// A quarter of the window runs untraced to give this process's own
		// op_p50_ms; the rest runs the decomposition.
		base = measure(cfg, box, cfg.seconds/4, wl.run)
		tr = newTracer(cfg.workload)
		ws = measure(cfg, box, cfg.seconds*3/4, func(w *window) { wl.runTraced(w, tr) })
	}
	finishFailed, err := wl.finish()
	if err != nil {
		return nil, fmt.Errorf("final check: %w", err)
	}

	// Every time below is divided by the speed factor of the phase it was
	// measured in; see boxSpeed.
	metrics := map[string]float64{}
	ops := float64(len(ws.ms))
	if !cfg.trace {
		metrics["op_p50_ms"] = median(ws.ms) / ws.slow
		metrics["ops_per_s"] = ops / ws.wall.Seconds() * ws.slow
		metrics["cpu_ms_per_op"] = float64(ws.cpu.Nanoseconds()) / 1e6 / ops / ws.slow
		metrics["alloc_mb_per_op"] = float64(ws.allocBytes) / (1 << 20) / ops
		metrics["peak_rss_mb"] = rss
		metrics["setup_s"] = median(setups) / setupSlow
	} else {
		realOpMs := wl.layerMetrics(tr, metrics)
		baseOps := float64(len(base.ms))
		metrics["harness.samples"] = ops
		metrics["harness.op_p90_ms"] = quantile(base.ms, 0.9)
		metrics["harness.op_max_ms"] = quantile(base.ms, 1)
		metrics["harness.gc_cycles_per_op"] = float64(base.gcCycles) / baseOps
		metrics["harness.gc_pause_ms_per_op"] = float64(base.gcPauseNs) / 1e6 / baseOps
		metrics["harness.traced_op_ms"] = median(ws.ms)
		if p50 := median(base.ms); p50 > 0 {
			metrics["harness.trace_overhead_pct"] = (realOpMs - p50) / p50 * 100
		}
		attributed := 0.0
		for _, l := range layers {
			attributed += metrics[l+".self_share"]
		}
		metrics["harness.self_share"] = math.Max(0, 100-attributed)
		// One factor for the whole traced run, the traced window's: the few
		// set-up and baseline timings among the layer metrics are single
		// samples that a second factor would not make any steadier.
		for _, d := range perLayer {
			switch d.unit {
			case "s", "ms", "us", "ns":
				metrics[d.name] /= ws.slow
			}
		}
		metrics["harness.box_speed_pct"] = 100 / ws.slow
		if err := tr.write(filepath.Join(cfg.scratch, "trace-"+cfg.workload+".json")); err != nil {
			return nil, fmt.Errorf("write span file: %w", err)
		}
	}

	rep = &report{
		Attempted: len(ws.ms) + len(base.ms) + 1, // the final check counts as one more op
		Failed:    ws.failed + base.failed + finishFailed,
		Metrics:   map[string]metricValue{},
		speedPct:  100 / ws.slow,
	}
	rep.Correct = rep.Failed == 0
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
	}
	for name := range metrics {
		if _, declared := rep.Metrics[name]; !declared {
			return nil, fmt.Errorf("workload %s produced undeclared metric %q", cfg.workload, name)
		}
	}
	return rep, nil
}
