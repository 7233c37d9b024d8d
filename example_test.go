package support_test

import (
	"fmt"
	"log"
	"sort"

	support "repro"
)

// ExampleEvaluate reproduces the paper's Figure 2: the triangle pattern has
// six occurrences but a single instance, so the image-based MNI measure
// reports 3 while the overlap-aware measures report 1.
func ExampleEvaluate() {
	g := support.NewGraphBuilder("figure2").
		Vertices(1, 1, 2, 3, 4, 5, 6).
		Cycle(1, 2, 3).
		Edge(2, 4).Edge(3, 5).Edge(3, 6).
		MustBuild()
	p, err := support.NewPattern(support.NewGraphBuilder("triangle").
		Vertices(1, 0, 1, 2).Cycle(0, 1, 2).MustBuild())
	if err != nil {
		log.Fatal(err)
	}

	ev, err := support.Evaluate(g, p, support.MNI, support.MI, support.MVC, support.MIS)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{support.MNI, support.MI, support.MVC, support.MIS} {
		v, _ := ev.Value(name)
		fmt.Printf("%s=%g\n", name, v)
	}
	// Output:
	// MNI=3
	// MI=1
	// MVC=1
	// MIS=1
}

// ExampleVerifyBoundingChain checks the paper's bounding chain on the
// Figure 6 star-overlap example.
func ExampleVerifyBoundingChain() {
	fig := support.PaperFigures()[5] // figure6
	if err := support.VerifyBoundingChain(fig.Graph, fig.Pattern); err != nil {
		fmt.Println("violated:", err)
		return
	}
	fmt.Println("MIS = MIES <= nuMIES = nuMVC <= MVC <= MI <= MNI holds")
	// Output:
	// MIS = MIES <= nuMIES = nuMVC <= MVC <= MI <= MNI holds
}

// ExampleEngine_Do mines frequent patterns from the Figure 2 graph with the
// MI measure — one mining Request on an Engine — and prints how many
// frequent shapes exist per pattern size.
func ExampleEngine_Do() {
	fig := support.PaperFigures()[1] // figure2
	eng, err := support.NewEngine(fig.Graph, support.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	mi, err := support.NewMeasure(support.MI)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := eng.Do(&support.Request{Mine: &support.MineSpec{MinSupport: 1, MaxPatternSize: 3, Measure: mi}})
	if err != nil {
		log.Fatal(err)
	}
	bySize := map[int]int{}
	for _, fp := range resp.Mining.Patterns {
		bySize[fp.Pattern.Size()]++
	}
	sizes := make([]int, 0, len(bySize))
	for s := range bySize {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		fmt.Printf("patterns with %d nodes: %d\n", s, bySize[s])
	}
	// Output:
	// patterns with 2 nodes: 1
	// patterns with 3 nodes: 2
}

// ExampleNewDeltaContext keeps the MNI support of a pattern warm across
// graph mutations: Refresh applies exact deltas to the live domain tables
// instead of re-enumerating, and the answers match a cold restart.
func ExampleNewDeltaContext() {
	g := support.NewGraphBuilder("dynamic").
		Vertex(1, 1).Vertex(2, 2).Vertex(3, 1).Vertex(4, 2).
		Edge(1, 2).Edge(3, 2).
		MustBuild()
	p := support.SingleEdgePattern(1, 2)

	d, err := support.NewDeltaContext(g, p, support.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	mni, err := support.NewMeasure(support.MNI)
	if err != nil {
		log.Fatal(err)
	}

	r, _ := mni.Compute(d.Context())
	fmt.Printf("before: occurrences=%d MNI=%g\n", d.NumOccurrences(), r.Value)

	// The graph grows; only the mutated region is re-enumerated.
	g.MustAddVertex(5, 2)
	g.MustAddEdge(1, 5)
	g.MustAddEdge(3, 5)
	if err := d.Refresh(); err != nil {
		log.Fatal(err)
	}
	r, _ = mni.Compute(d.Context())
	fmt.Printf("after:  occurrences=%d MNI=%g\n", d.NumOccurrences(), r.Value)
	// Output:
	// before: occurrences=2 MNI=1
	// after:  occurrences=4 MNI=2
}

// ExampleEngine_OpenSession keeps a whole mining session warm: after an
// Update, Refresh re-answers the frequent-pattern question from
// delta-maintained support state — including boundary patterns that newly
// crossed the threshold — without a cold re-mine.
func ExampleEngine_OpenSession() {
	g := support.NewGraphBuilder("growing").
		Vertex(1, 1).Vertex(2, 1).Vertex(3, 2).
		Edge(1, 2).Edge(1, 3).
		MustBuild()
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}

	sess, err := eng.OpenSession(support.MineSpec{MinSupport: 2, MaxPatternSize: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	fmt.Printf("initial: %d frequent of %d tracked candidates\n",
		sess.Result().Stats.Frequent, sess.TrackedPatterns())

	// A new edge pushes the (1)-(2) pattern over the threshold; Refresh
	// expands from the tracked boundary instead of re-mining.
	if _, err := eng.Update(func(g *support.Graph) error {
		g.MustAddVertex(4, 2)
		g.MustAddEdge(2, 4)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	res, epoch, err := sess.Refresh()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch %d: %d frequent of %d tracked candidates\n",
		epoch, res.Stats.Frequent, sess.TrackedPatterns())
	// Output:
	// initial: 1 frequent of 2 tracked candidates
	// epoch 2: 2 frequent of 2 tracked candidates
}

// ExampleSingleEdgePattern shows the smallest possible query: a labeled edge.
func ExampleSingleEdgePattern() {
	fig := support.PaperFigures()[5] // figure6
	p := support.SingleEdgePattern(1, 2)
	ev, err := support.Evaluate(fig.Graph, p, support.Occurrences, support.MNI, support.MVC)
	if err != nil {
		log.Fatal(err)
	}
	occ, _ := ev.Value(support.Occurrences)
	mni, _ := ev.Value(support.MNI)
	mvc, _ := ev.Value(support.MVC)
	fmt.Printf("occurrences=%g MNI=%g MVC=%g\n", occ, mni, mvc)
	// Output:
	// occurrences=7 MNI=4 MVC=2
}
