// Chemistry example: frequent substructure mining in a molecule-like graph.
//
// The paper's introduction motivates single-graph mining with chemical
// compounds and biomolecular structures. This example builds a small
// polymer-like molecule graph (a chain of aromatic rings with attached
// functional groups), mines frequent substructures with two different
// support measures, and shows how the choice of measure changes which
// substructures count as frequent.
//
// Run with:
//
//	go run ./examples/chemistry
package main

import (
	"fmt"
	"log"

	support "repro"
)

// Atom labels for the molecule graph.
const (
	carbon   = support.Label(1)
	oxygen   = support.Label(2)
	nitrogen = support.Label(3)
)

func main() {
	g := buildPolymer(6)
	fmt.Printf("molecule graph: %s\n\n", g)
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Mine frequent substructures with the fast MNI measure (the GraMi
	// baseline) and with the overlap-aware MI measure from the paper.
	for _, measureName := range []string{support.MNI, support.MI} {
		res := mine(eng, measureName, 3, 4)
		fmt.Printf("measure %-4s  threshold 3  -> %d frequent substructures "+
			"(%d candidates, %d pruned, %s)\n",
			measureName, res.Stats.Frequent, res.Stats.Candidates, res.Stats.Pruned, res.Stats.Elapsed)
		for i, fp := range res.Patterns {
			if fp.Pattern.Size() < 3 {
				continue // skip the trivial one-edge patterns in the report
			}
			fmt.Printf("   #%d support=%.0f occurrences=%d instances=%d atoms=%v\n",
				i+1, fp.Support, fp.Occurrences, fp.Instances, atomNames(fp))
		}
		fmt.Println()
	}

	// Focus on one chemically meaningful pattern: the C-O-C ether bridge.
	ether, err := support.NewGraphBuilder("ether").
		Vertex(0, carbon).Vertex(1, oxygen).Vertex(2, carbon).
		Path(0, 1, 2).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	p, err := support.NewPattern(ether)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := support.Evaluate(g, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("support of the C-O-C ether bridge:")
	fmt.Print(support.FormatEvaluation(ev))
	fmt.Println("\nThe two terminal carbons are symmetric, so MI merges their images")
	fmt.Println("and reports a support closer to the number of ether bridges than MNI.")
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

// buildPolymer creates `rings` six-carbon rings chained by ether bridges
// (C-O-C) with an amino group (N) attached to every second ring.
func buildPolymer(rings int) *support.Graph {
	b := support.NewGraphBuilder("polymer")
	next := support.VertexID(0)
	newVertex := func(l support.Label) support.VertexID {
		v := next
		b.Vertex(v, l)
		next++
		return v
	}
	var prevRingExit support.VertexID
	for r := 0; r < rings; r++ {
		// Six-membered carbon ring.
		ring := make([]support.VertexID, 6)
		for i := range ring {
			ring[i] = newVertex(carbon)
		}
		for i := range ring {
			b.Edge(ring[i], ring[(i+1)%6])
		}
		// Ether bridge to the previous ring.
		if r > 0 {
			o := newVertex(oxygen)
			b.Edge(prevRingExit, o)
			b.Edge(o, ring[0])
		}
		// Amino substituent on every second ring.
		if r%2 == 0 {
			n := newVertex(nitrogen)
			b.Edge(ring[3], n)
		}
		prevRingExit = ring[2]
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// atomNames renders the pattern's label multiset using element symbols.
func atomNames(fp support.FrequentPattern) []string {
	symbol := map[support.Label]string{carbon: "C", oxygen: "O", nitrogen: "N"}
	var out []string
	for _, n := range fp.Pattern.Nodes() {
		out = append(out, symbol[fp.Pattern.LabelOf(n)])
	}
	return out
}
