// Command gminer mines frequent patterns from a single data graph with a
// configurable anti-monotonic support measure, mirroring the GraMi-style
// single-graph mining workflow the paper targets.
//
// Usage:
//
//	gminer -graph data.lg -measure MNI -minsup 5 [-maxsize 4] [-top 20]
//	gminer -graph data.lg -minsup 5 -incremental -inserts 16 -removes 4
//	                 # mine once, apply random edge inserts and removals
//	                 # through the engine's epoch handoff, and re-answer
//	                 # from live delta-maintained support state (no cold
//	                 # start), reporting refresh vs full re-mine latency
//	gminer -store ba.store -minsup 5 -residency 25%
//	                 # mine an mmapped out-of-core shard store (written by
//	                 # ggen -store) without materializing the graph in RAM,
//	                 # paging shards under the given residency budget
//	gminer -graph data.lg -minsup 5 -explain
//	                 # additionally print each frequent pattern's search
//	                 # plan (order, per-depth candidate estimates, kernels)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	support "repro"
	"repro/internal/cliflags"
	"repro/internal/gen"
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
		fmt.Fprintln(os.Stderr, "gminer:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, mines as they describe and
// writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gminer", flag.ContinueOnError)
	var (
		graphPath   = fs.String("graph", "", "path to the data graph in .lg format (required)")
		measure     = fs.String("measure", support.MNI, "support measure driving pruning; see gsupport -list")
		minsup      = fs.Float64("minsup", 2, "minimum support threshold")
		maxsize     = fs.Int("maxsize", 4, "maximum number of pattern nodes")
		top         = fs.Int("top", 0, "print only the top-N patterns by support (0 = all)")
		workers     = fs.Int("workers", 0, "candidate evaluation workers per search level (<2 = sequential)")
		incremental = fs.Bool("incremental", false, "keep the mining session warm, apply -inserts random edge inserts, and re-answer via delta maintenance instead of a cold re-mine (streaming-capable measures only)")
		inserts     = fs.Int("inserts", 8, "number of random edge inserts the -incremental mode applies")
		removes     = fs.Int("removes", 0, "number of random edge removals the -incremental mode applies after the inserts")
		insertSeed  = fs.Uint64("insert-seed", 1, "PRNG seed for the -incremental edge inserts and removals")
	)
	fl := cliflags.Register(fs, cliflags.Enum, cliflags.Shards, cliflags.Store, cliflags.Explain, cliflags.Trace)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlags
	}

	m, err := support.NewMeasure(*measure)
	if err != nil {
		return err
	}
	spec := support.MineSpec{
		MinSupport:     *minsup,
		MaxPatternSize: *maxsize,
		Measure:        m,
		Workers:        *workers,
	}

	var g *support.Graph
	if fl.StorePath() == "" {
		if *graphPath == "" {
			return fmt.Errorf("one of -graph or -store is required")
		}
		if g, err = support.LoadLGFile(*graphPath); err != nil {
			return err
		}
	} else if *incremental {
		return fmt.Errorf("-incremental needs a mutable graph; a -store snapshot is immutable")
	}

	eng, err := fl.Engine(func() (*support.Graph, error) { return g, nil })
	if err != nil {
		return err
	}
	defer eng.Close()

	if *incremental {
		return mineIncremental(stdout, eng, g, spec, *measure, *top, *inserts, *removes, *insertSeed, fl.Explain())
	}

	resp, err := fl.Do(eng, &support.Request{Mine: &spec})
	if err != nil {
		return err
	}
	if fl.StorePath() != "" {
		snap, _ := eng.Current()
		fmt.Fprintf(stdout, "data graph: store %s (%q, |V|=%d, |E|=%d, %d shards of %d vertices)\nmeasure:    %s   threshold: %g   max pattern size: %d\n\n",
			fl.StorePath(), snap.Name(), snap.NumVertices(), snap.NumEdges(), snap.NumShards(), snap.ShardSize(), *measure, *minsup, *maxsize)
	} else {
		printHeader(stdout, g, *measure, *minsup, *maxsize)
	}
	printResult(stdout, resp.Mining, *top, engineExplainer(eng, fl.Explain()))
	if rs, ok := eng.Residency(); ok {
		fmt.Fprintf(stdout, "\nresidency: %s\n", rs)
	}
	return nil
}

// planExplainer compiles the search plan of one mined pattern for -explain
// output; nil disables plan printing.
type planExplainer func(*support.Pattern) *support.PlanExplanation

// engineExplainer builds the planExplainer over the engine's current
// snapshot. Call it again after an Update to explain plans on the new epoch.
func engineExplainer(eng *support.Engine, enabled bool) planExplainer {
	if !enabled {
		return nil
	}
	snap, _ := eng.Current()
	return func(p *support.Pattern) *support.PlanExplanation {
		return support.ExplainPlan(snap, p)
	}
}

// mineIncremental runs the warm-session workflow on the engine: mine once
// through OpenSession, mutate (inserts then removals) through the Update
// epoch handoff, and re-answer from the live delta state, reporting how the
// refresh latency compares to a from-scratch re-mine of the new epoch.
func mineIncremental(stdout io.Writer, eng *support.Engine, g *support.Graph, spec support.MineSpec, measure string, top, inserts, removes int, seed uint64, explain bool) error {
	sess, err := eng.OpenSession(spec)
	if err != nil {
		return err
	}
	defer sess.Close()

	printHeader(stdout, g, measure, spec.MinSupport, spec.MaxPatternSize)
	fmt.Fprintf(stdout, "=== initial mine (tracked candidates: %d, epoch %d) ===\n", sess.TrackedPatterns(), eng.Epoch())
	printResult(stdout, sess.Result(), top, engineExplainer(eng, explain))

	var applied, removed int
	epoch, err := eng.Update(func(g *support.Graph) error {
		applied = applyRandomInserts(g, inserts, seed)
		removed = applyRandomRemovals(g, removes, seed)
		return nil
	})
	if err != nil {
		return err
	}
	if applied < inserts {
		fmt.Fprintf(stdout, "note: only %d of %d requested edge inserts were possible on this graph\n", applied, inserts)
	}
	if removed < removes {
		fmt.Fprintf(stdout, "note: only %d of %d requested edge removals were possible on this graph\n", removed, removes)
	}

	start := time.Now()
	res, refreshEpoch, err := sess.Refresh()
	if err != nil {
		return err
	}
	refreshElapsed := time.Since(start)

	start = time.Now()
	cold, err := eng.Do(&support.Request{Mine: &spec})
	if err != nil {
		return err
	}
	coldElapsed := time.Since(start)
	if len(cold.Mining.Patterns) != len(res.Patterns) {
		return fmt.Errorf("delta refresh found %d frequent patterns, cold re-mine found %d", len(res.Patterns), len(cold.Mining.Patterns))
	}

	fmt.Fprintf(stdout, "\n=== after %d random edge inserts and %d removals (epoch %d -> %d) ===\n", applied, removed, epoch-1, refreshEpoch)
	fmt.Fprintf(stdout, "delta refresh:  %12s  (tracked candidates: %d)\n", refreshElapsed, sess.TrackedPatterns())
	fmt.Fprintf(stdout, "cold re-mine:   %12s  (same %d frequent patterns)\n\n", coldElapsed, len(cold.Mining.Patterns))
	printResult(stdout, res, top, engineExplainer(eng, explain))
	return nil
}

// applyRandomInserts adds up to n random non-duplicate edges between
// existing vertices and returns how many were actually applied — tiny or
// near-complete graphs can run out of fresh edges before reaching n.
func applyRandomInserts(g *support.Graph, n int, seed uint64) int {
	rng := gen.NewRNG(seed)
	ids := g.SortedVertices()
	if len(ids) < 2 {
		return 0
	}
	applied := 0
	for i := 0; i < n; i++ {
		for attempt := 0; attempt < 64; attempt++ {
			u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
				applied++
				break
			}
		}
	}
	return applied
}

// applyRandomRemovals removes up to n random existing edges and returns how
// many were actually removed — the graph can run out of edges first. The
// deltas flow through the same downward re-checking path as server-side
// removals, so a refresh after removals still equals a cold re-mine.
func applyRandomRemovals(g *support.Graph, n int, seed uint64) int {
	rng := gen.NewRNG(seed + 1)
	removed := 0
	for i := 0; i < n; i++ {
		edges := g.Edges()
		if len(edges) == 0 {
			break
		}
		e := edges[rng.Intn(len(edges))]
		g.MustRemoveEdge(e.U, e.V)
		removed++
	}
	return removed
}

// printHeader describes the mining configuration.
func printHeader(stdout io.Writer, g *support.Graph, measure string, minsup float64, maxsize int) {
	fmt.Fprintf(stdout, "data graph: %s\nmeasure:    %s   threshold: %g   max pattern size: %d\n\n",
		g, measure, minsup, maxsize)
}

// printResult renders a mining result, truncated to the top-N patterns when
// asked to; a non-nil explainer prints each printed pattern's search plan
// under its result line.
func printResult(stdout io.Writer, res *support.MinerResult, top int, explain planExplainer) {
	fmt.Fprintf(stdout, "candidates evaluated: %d   pruned: %d   duplicates skipped: %d   elapsed: %s\n\n",
		res.Stats.Candidates, res.Stats.Pruned, res.Stats.Duplicates, res.Stats.Elapsed)

	patterns := res.Patterns
	if top > 0 && top < len(patterns) {
		patterns = patterns[:top]
	}
	fmt.Fprintf(stdout, "frequent patterns (%d total):\n", len(res.Patterns))
	for i, fp := range patterns {
		exact := ""
		if !fp.Exact {
			exact = " (approx)"
		}
		fmt.Fprintf(stdout, "%3d. support=%.4g%s  occurrences=%d  instances=%d  %s\n",
			i+1, fp.Support, exact, fp.Occurrences, fp.Instances, describePattern(fp))
		if explain != nil {
			fmt.Fprint(stdout, indent(explain(fp.Pattern).String(), "     "))
		}
	}
}

// indent prefixes every non-empty line of s.
func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = prefix + l
		}
	}
	return strings.Join(lines, "\n")
}

// describePattern renders a small textual description of a frequent pattern.
func describePattern(fp support.FrequentPattern) string {
	p := fp.Pattern
	desc := fmt.Sprintf("nodes=%d edges=%d labels=[", p.Size(), p.NumEdges())
	for i, n := range p.Nodes() {
		if i > 0 {
			desc += " "
		}
		desc += fmt.Sprintf("%d", p.LabelOf(n))
	}
	desc += "] edges="
	for i, e := range p.Edges() {
		if i > 0 {
			desc += ","
		}
		desc += fmt.Sprintf("%d-%d", e.U, e.V)
	}
	return desc
}
