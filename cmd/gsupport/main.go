// Command gsupport computes the support measures of a pattern in a data
// graph. Both graphs are given as .lg files (GraMi-style text format); the
// pattern may alternatively be one of the built-in shapes.
//
// Usage:
//
//	gsupport -graph data.lg -pattern query.lg [-measures MNI,MI,MVC]
//	gsupport -graph data.lg -edge 1,2              # single-edge pattern
//	gsupport -figure figure2                       # built-in paper figure
//	gsupport -store ba.store -edge 1,2 -residency 64MiB
//	                 # mmap an out-of-core shard store (written by
//	                 # ggen -store) instead of parsing a .lg file, paging
//	                 # shards under the given residency budget
//	gsupport -graph data.lg -edge 1,2 -explain
//	                 # additionally print the enumeration engine's search
//	                 # plan (order, per-depth candidate estimates, kernels)
//
// With no -measures flag every measure is computed and the bounding chain of
// the paper is verified.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	support "repro"
	"repro/internal/cliflags"
)

// errFlags reports a command line the FlagSet rejected; the FlagSet has
// already printed the reason and the usage to stderr.
var errFlags = errors.New("invalid command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errFlags):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "gsupport:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, answers the one request they
// describe and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gsupport", flag.ContinueOnError)
	var (
		graphPath   = fs.String("graph", "", "path to the data graph in .lg format")
		patternPath = fs.String("pattern", "", "path to the pattern in .lg format")
		edgeLabels  = fs.String("edge", "", "single-edge pattern given as two comma-separated labels, e.g. 1,2")
		figureName  = fs.String("figure", "", "use a built-in paper figure (figure1..figure10) instead of -graph/-pattern")
		measureList = fs.String("measures", "", "comma-separated measure names (default: all); see -list")
		list        = fs.Bool("list", false, "list available measure names and exit")
		verify      = fs.Bool("verify", true, "verify the paper's bounding chain when all measures are computed")
	)
	fl := cliflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlags
	}

	if *list {
		for _, n := range support.MeasureNames() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}

	var names []string
	if *measureList != "" {
		names = strings.Split(*measureList, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}

	// Resolve the pattern (and, for .lg/figure sources, the data graph) up
	// front, then open the engine on whichever source the flags selected.
	var (
		g   *support.Graph
		p   *support.Pattern
		err error
	)
	if fl.StorePath() != "" {
		p, err = loadPattern(*patternPath, *edgeLabels)
	} else {
		g, p, err = loadInputs(*figureName, *graphPath, *patternPath, *edgeLabels)
	}
	if err != nil {
		return err
	}
	eng, err := fl.Engine(func() (*support.Graph, error) { return g, nil })
	if err != nil {
		return err
	}
	defer eng.Close()

	resp, err := fl.Do(eng, &support.Request{Pattern: p, Measures: names, Explain: fl.Explain()})
	if err != nil {
		return err
	}

	if fl.StorePath() != "" {
		snap, _ := eng.Current()
		fmt.Fprintf(stdout, "data graph: store %s (%q, |V|=%d, |E|=%d, %d shards of %d vertices)\npattern:    %s\n\n",
			fl.StorePath(), snap.Name(), snap.NumVertices(), snap.NumEdges(), snap.NumShards(), snap.ShardSize(), p)
	} else {
		fmt.Fprintf(stdout, "data graph: %s\npattern:    %s\n\n", g, p)
	}
	if resp.Plan != nil {
		fmt.Fprintln(stdout, resp.Plan)
	}
	fmt.Fprint(stdout, support.FormatEvaluation(resp.Evaluation))
	if rs, ok := eng.Residency(); ok {
		fmt.Fprintf(stdout, "\nresidency: %s\n", rs)
	}

	// The paper's bounding chain is checked on a full evaluation only.
	if *verify && len(names) == 0 && !fl.Streaming() {
		if err := resp.Evaluation.VerifyBoundingChain(); err != nil {
			return fmt.Errorf("bounding chain violated: %w", err)
		}
		fmt.Fprintln(stdout, "\nbounding chain MIS = MIES <= nuMIES = nuMVC <= MVC <= MI <= MNI: OK")
	}
	return nil
}

// loadInputs resolves the data graph and pattern from the flag combination.
func loadInputs(figure, graphPath, patternPath, edgeLabels string) (*support.Graph, *support.Pattern, error) {
	if figure != "" {
		for _, f := range support.PaperFigures() {
			if f.Name == figure {
				return f.Graph, f.Pattern, nil
			}
		}
		return nil, nil, fmt.Errorf("unknown figure %q (try figure1..figure10)", figure)
	}
	if graphPath == "" {
		return nil, nil, fmt.Errorf("either -figure or -graph is required")
	}
	g, err := support.LoadLGFile(graphPath)
	if err != nil {
		return nil, nil, err
	}
	p, err := loadPattern(patternPath, edgeLabels)
	if err != nil {
		return nil, nil, err
	}
	return g, p, nil
}

// loadPattern resolves the query pattern from -pattern or -edge.
func loadPattern(patternPath, edgeLabels string) (*support.Pattern, error) {
	switch {
	case patternPath != "":
		pg, err := support.LoadLGFile(patternPath)
		if err != nil {
			return nil, err
		}
		return support.NewPattern(pg)
	case edgeLabels != "":
		parts := strings.Split(edgeLabels, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("-edge expects two comma-separated labels, got %q", edgeLabels)
		}
		a, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("bad label %q: %w", parts[0], err)
		}
		b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("bad label %q: %w", parts[1], err)
		}
		return support.SingleEdgePattern(support.Label(a), support.Label(b)), nil
	default:
		return nil, fmt.Errorf("one of -pattern or -edge is required")
	}
}
