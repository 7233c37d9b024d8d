// Command gbench runs the experiment suite that reproduces the paper's
// figures and quantitative claims (-list prints the index). Each experiment
// prints one or more result tables. It measures nothing about this
// implementation's speed: the performance benchmark is the program under
// benchmark/ (see benchmark/README.md).
//
// Usage:
//
//	gbench                     # run every experiment with full-size workloads
//	gbench -exp chain          # run one experiment
//	gbench -quick              # shrink workloads (seconds instead of minutes)
//	gbench -csv                # CSV output for plotting
//	gbench -list               # list experiment IDs
//	gbench -trace              # print per-experiment wall-clock spans to stderr
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/obs"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment ID to run (default: all); see -list")
		quick = flag.Bool("quick", false, "use reduced workloads")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned text")
		seed  = flag.Uint64("seed", 1, "base PRNG seed for generated workloads")
		list  = flag.Bool("list", false, "list experiment IDs and exit")
	)
	fl := cliflags.Register(flag.CommandLine, cliflags.Trace)
	flag.Parse()

	reg := bench.NewRegistry()
	if *list {
		for _, id := range reg.IDs() {
			e, _ := reg.Get(id)
			fmt.Printf("%-14s %s\n", id, e.Claim)
		}
		return
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed, CSV: *csv}
	var tr *obs.Trace
	if fl.Trace() {
		tr = obs.NewTrace("gbench")
	}
	if *exp == "" {
		if err := reg.RunAllTraced(os.Stdout, cfg, tr); err != nil {
			fatal(err)
		}
		printTrace(tr)
		return
	}
	e, err := reg.Get(*exp)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("### experiment %s — %s\n\n", e.ID, e.Claim)
	sp := tr.Root().Start(e.ID)
	err = e.Run(os.Stdout, cfg)
	sp.End()
	if err != nil {
		fatal(err)
	}
	printTrace(tr)
}

// printTrace renders the finished suite span tree to stderr; nil means
// -trace was not given.
func printTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Finish()
	fmt.Fprint(os.Stderr, tr.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gbench:", err)
	os.Exit(1)
}
