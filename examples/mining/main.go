// Mining example: a full frequent-pattern mining study over a synthetic
// citation-style graph, sweeping the support threshold and comparing how the
// choice of support measure affects result counts, pruning behaviour and
// runtime — the end-to-end workflow the paper's measures are designed for.
//
// Run with:
//
//	go run ./examples/mining
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	support "repro"
)

func main() {
	// A preferential-attachment graph with a small label alphabet stands in
	// for a citation network (package internal/gen holds the stand-in
	// generators).
	g := support.BarabasiAlbert(150, 2, 3, 2026)
	fmt.Printf("data graph: %s\n\n", g)
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}

	measuresToCompare := []string{support.MNI, support.MI, support.MVCApprox, support.MIESGreedy}
	thresholds := []float64{4, 8, 16}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "measure\tthreshold\tfrequent\tcandidates\tpruned\telapsed")
	for _, name := range measuresToCompare {
		for _, th := range thresholds {
			res := mine(eng, name, th, 3)
			fmt.Fprintf(w, "%s\t%.0f\t%d\t%d\t%d\t%s\n",
				name, th, res.Stats.Frequent, res.Stats.Candidates, res.Stats.Pruned,
				res.Stats.Elapsed.Round(res.Stats.Elapsed/100+1))
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	// Show the largest frequent patterns found by the paper's MI measure,
	// allowing one more node than the sweep above.
	fmt.Println("\nlargest frequent patterns under the MI measure (threshold 4):")
	res := mine(eng, support.MI, 4, 4)
	shown := 0
	for _, fp := range res.Patterns {
		if fp.Pattern.Size() < 3 {
			continue
		}
		fmt.Printf("  support=%.0f nodes=%d edges=%d labels=%v\n",
			fp.Support, fp.Pattern.Size(), fp.Pattern.NumEdges(), labelsOf(fp.Pattern))
		shown++
		if shown >= 10 {
			break
		}
	}
	if shown == 0 {
		fmt.Println("  (none with three or more nodes at this threshold)")
	}

	fmt.Println("\nStricter measures (closer to MIS) report fewer frequent patterns at the")
	fmt.Println("same threshold because they do not count overlapping placements twice;")
	fmt.Println("faster measures (MNI) keep the mining loop cheap but over-report.")
}

// mine runs one mining request on the engine with the named support measure.
func mine(eng *support.Engine, measure string, minSupport float64, maxPatternSize int) *support.MinerResult {
	m, err := support.NewMeasure(measure)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := eng.Do(&support.Request{Mine: &support.MineSpec{
		MinSupport:     minSupport,
		MaxPatternSize: maxPatternSize,
		Measure:        m,
	}})
	if err != nil {
		log.Fatal(err)
	}
	return resp.Mining
}

// labelsOf lists the pattern's node labels in node order.
func labelsOf(p *support.Pattern) []support.Label {
	var out []support.Label
	for _, n := range p.Nodes() {
		out = append(out, p.LabelOf(n))
	}
	return out
}
