// Command ggen generates synthetic labeled graphs in .lg format. The
// generators stand in for the real datasets of the published evaluation (see
// package internal/gen) and are fully deterministic given the seed.
//
// Usage:
//
//	ggen -model er       -n 1000 -p 0.01  -labels 4 -seed 1 -out er.lg
//	ggen -model ba       -n 1000 -m 3     -labels 4 -seed 1 -out ba.lg
//	ggen -model geo      -n 500  -radius 0.05 -labels 2 -out geo.lg
//	ggen -model grid     -rows 20 -cols 20 -labels 2 -out grid.lg
//	ggen -model star     -hubs 8 -leaves 16 -out star.lg
//	ggen -model cliques  -count 10 -size 5 -out cliques.lg
//	ggen -model citation|protein|social -n 2000 -out preset.lg
//	ggen -model ba -n 1000000 -store ba.store -store-shards 64
//	                 # write the binary out-of-core shard store instead of
//	                 # (or alongside) the .lg text form; gsupport, gminer
//	                 # and gserved mmap it back with their -store flags
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
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
		fmt.Fprintln(os.Stderr, "ggen:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and generates the graph they
// describe, writing it to -out (or stdout) and -store, with a summary on
// stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ggen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model       = fs.String("model", "er", "generator: er, ba, geo, grid, star, cliques, citation, protein, social")
		n           = fs.Int("n", 500, "number of vertices (er, ba, geo, presets)")
		p           = fs.Float64("p", 0.01, "edge probability (er)")
		m           = fs.Int("m", 2, "edges per new vertex (ba)")
		radius      = fs.Float64("radius", 0.05, "connection radius (geo)")
		rows        = fs.Int("rows", 10, "grid rows")
		cols        = fs.Int("cols", 10, "grid cols")
		hubs        = fs.Int("hubs", 8, "hub count (star)")
		leaves      = fs.Int("leaves", 8, "leaves per hub (star)")
		count       = fs.Int("count", 8, "clique count (cliques)")
		size        = fs.Int("size", 4, "clique size (cliques)")
		labels      = fs.Int("labels", 3, "label alphabet size (uniform labels)")
		zipf        = fs.Bool("zipf", false, "use a Zipf label distribution instead of uniform")
		seed        = fs.Uint64("seed", 1, "PRNG seed")
		out         = fs.String("out", "", "output path (default: stdout)")
		storeDir    = fs.String("store", "", "also write the graph as a binary shard store into this directory (mmap-loadable by gsupport, gminer and gserved -store)")
		storeShards = fs.Int("store-shards", 0, "CSR shard count of the written store (0 = auto: one shard up to 65536 vertices)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlags
	}

	var labelModel gen.LabelModel = gen.UniformLabels{K: *labels}
	if *zipf {
		labelModel = gen.ZipfLabels{K: *labels, Exponent: 1.2}
	}

	var g *graph.Graph
	var err error
	switch *model {
	case "er":
		g = gen.ErdosRenyi(*n, *p, labelModel, *seed)
	case "ba":
		g = gen.BarabasiAlbert(*n, *m, labelModel, *seed)
	case "geo":
		g = gen.RandomGeometric(*n, *radius, labelModel, *seed)
	case "grid":
		g = gen.Grid(*rows, *cols, labelModel, *seed)
	case "star":
		g = gen.StarOverlap(*hubs, *leaves, *seed)
	case "cliques":
		g = gen.CliqueChain(*count, *size, *seed)
	case "citation", "protein", "social":
		g, err = gen.FromPreset(gen.Preset(*model), *n, *seed)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown model %q", *model)
	}

	stats := g.DegreeStatistics()
	fmt.Fprintf(stderr, "generated %s: degree min/mean/max = %d/%.2f/%d, density = %.5f, labels = %d\n",
		g, stats.Min, stats.Mean, stats.Max, g.Density(), len(g.Labels()))

	if *storeDir != "" {
		snap := g.FreezeSharded(graph.FreezeOptions{Shards: *storeShards})
		if err := store.Write(snap, *storeDir); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote shard store %s (%d shards of %d vertices)\n",
			*storeDir, snap.NumShards(), snap.ShardSize())
		if *out == "" {
			return nil
		}
	}

	if *out == "" {
		return dataset.WriteLG(stdout, g)
	}
	if err := dataset.SaveLGFile(*out, g); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", *out)
	return nil
}
