// Command gvet is the repository's invariant multichecker. It runs the two
// internal/analysis passes — hotalloc and determinism — over the packages
// matching its arguments (default ./...) and exits 1 when any finding
// survives the //gvet:ignore directives. CI runs it over the whole module;
// see the "Checked invariants" section of ARCHITECTURE.md for what each
// pass enforces and how to annotate deliberate exceptions.
//
// Usage:
//
//	go run ./cmd/gvet [-list] [packages]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

var (
	// errFlags reports a command line the FlagSet rejected; the FlagSet has
	// already printed the reason and the usage to stderr.
	errFlags = errors.New("invalid command line")
	// errFindings reports that findings survived; they are on stdout and
	// their count on stderr.
	errFindings = errors.New("findings reported")
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, errFindings):
		os.Exit(1)
	case errors.Is(err, errFlags):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "gvet:", err)
		os.Exit(2)
	}
}

// run is the whole command: it loads every package matching the patterns
// in args and prints the surviving findings of the full suite to stdout,
// one per line. Any finding makes it return errFindings.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and their docs, then exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: gvet [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlags
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%s\n\t%s\n", a.Name, a.Doc)
		}
		return nil
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := analysis.GoList(patterns...)
	if err != nil {
		return err
	}
	loader := analysis.NewLoader()
	suite := analysis.Analyzers()
	found := 0
	for _, m := range metas {
		pkg, err := loader.Load(m.Dir, m.Path)
		if err != nil {
			return err
		}
		for _, d := range analysis.Check(pkg, suite) {
			fmt.Fprintln(stdout, d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(stderr, "gvet: %d finding(s)\n", found)
		return errFindings
	}
	return nil
}
