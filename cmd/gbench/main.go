// Command gbench runs the experiment suite that reproduces the paper's
// figures and quantitative claims (-list prints the index). Each experiment
// prints one or more tables of values and none of timings: gbench says
// nothing about this implementation's speed, which only the performance
// benchmark under benchmark/ measures (see benchmark/README.md).
//
// Usage:
//
//	gbench                     # run every experiment with full-size workloads
//	gbench -exp chain          # run one experiment
//	gbench -quick              # shrink workloads (seconds instead of minutes)
//	gbench -csv                # CSV output for plotting
//	gbench -list               # list experiment IDs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

// errFlags reports a command line the FlagSet rejected; the FlagSet has
// already printed the reason and the usage to stderr.
var errFlags = errors.New("invalid command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, errFlags):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "gbench:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes the index or the
// tables they ask for to stdout; a rejected command line goes to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "", "experiment ID to run (default: all); see -list")
		quick = fs.Bool("quick", false, "use reduced workloads")
		csv   = fs.Bool("csv", false, "emit CSV instead of aligned text")
		seed  = fs.Uint64("seed", 1, "base PRNG seed for generated workloads")
		list  = fs.Bool("list", false, "list experiment IDs and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlags
	}

	reg := bench.NewRegistry()
	if *list {
		for _, id := range reg.IDs() {
			e, _ := reg.Get(id)
			fmt.Fprintf(stdout, "%-14s %s\n", id, e.Claim)
		}
		return nil
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed, CSV: *csv}
	if *exp == "" {
		return reg.RunAll(stdout, cfg)
	}
	e, err := reg.Get(*exp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "### experiment %s — %s\n\n", e.ID, e.Claim)
	return e.Run(stdout, cfg)
}
