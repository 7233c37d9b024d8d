package measures_test

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/pattern"
)

// referenceDistinctImages is what MI and MNIk minimise, counted the plain
// way: every subset's set images f(W) over every occurrence of the context
// (Occurrences(), no symmetry and no instance in sight), each keyed by its
// sorted VertexIDs as varints — prefix-free, so distinct images get distinct
// keys — in a map. The first minimising subset in the given order wins.
func referenceDistinctImages(ctx *core.Context, subsets [][]pattern.NodeID) ([]pattern.NodeID, int) {
	occs := ctx.Occurrences()
	minCount := -1
	var minSubset []pattern.NodeID
	for _, subset := range subsets {
		images := map[string]bool{}
		for _, o := range occs {
			var key []byte
			for _, v := range o.SubsetImage(subset) {
				key = binary.AppendVarint(key, int64(v))
			}
			images[string(key)] = true
		}
		if minCount < 0 || len(images) < minCount {
			minCount, minSubset = len(images), subset
		}
	}
	return minSubset, minCount
}

// requireMIMatchesReference holds MI and MNIk, for every k from 2 to the
// pattern's size, to referenceDistinctImages on a materialised context:
// value, Exact and the witness, which names the minimising subset.
func requireMIMatchesReference(t *testing.T, tag string, ctx *core.Context) {
	t.Helper()
	if ctx.NumOccurrences() == 0 {
		return
	}
	p := ctx.Pattern()
	subsets, err := ctx.TransitiveNodeSubsets()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	subset, count := referenceDistinctImages(ctx, subsets)
	want := measures.Result{Measure: measures.NameMI, Value: float64(count), Exact: true,
		Witness: fmt.Sprintf("minimizing transitive node subset %v with %d distinct set images", subset, count)}
	if got, err := (measures.MI{}).Compute(ctx); err != nil || got != want {
		t.Fatalf("%s: MI = %+v (err %v), the occurrence list gives %+v", tag, got, err, want)
	}
	for k := 2; k <= p.Size(); k++ {
		subsets, err := p.ConnectedSubsets(k)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		subset, count := referenceDistinctImages(ctx, subsets)
		want := measures.Result{Measure: measures.NameMNIK, Value: float64(count), Exact: true,
			Witness: fmt.Sprintf("minimizing connected subset %v (k=%d) with %d distinct set images", subset, k, count)}
		if got, err := (measures.MNIK{K: k}).Compute(ctx); err != nil || got != want {
			t.Fatalf("%s: MNIk(%d) = %+v (err %v), the occurrence list gives %+v", tag, k, got, err, want)
		}
	}
}

// twinnedCycles returns n disjoint one-label 5-cycles a0…a4, each with a
// sixth vertex joined to a1 and a3, a twin of a2: every cycle's vertices are
// two 5-cycles' vertex sets, which share four vertices and their smallest.
func twinnedCycles(n int) *graph.Graph {
	b := graph.NewBuilder("twinned-cycles")
	for v := 0; v < 6*n; v++ {
		b.Vertex(graph.VertexID(v), 1)
	}
	for c := 0; c < n; c++ {
		a := func(i int) graph.VertexID { return graph.VertexID(6*c + i) }
		for i := 0; i < 5; i++ {
			b.Edge(a(i), a((i+1)%5))
		}
		b.Edge(a(5), a(1))
		b.Edge(a(5), a(3))
	}
	return b.MustBuild()
}

// TestMIMatchesOccurrenceReference holds MI and MNIk — counted once per
// Aut(P) class of subsets, by a radix sort of the instances' rank tuples —
// to the map of every occurrence's set images, on BA graphs and patterns of
// two to five nodes at shards {1, 2, 7} × parallelism {1, 4}. The
// benchmark's star has its three leaf pairs in one class; a one-label star
// and a one-label 4-cycle put every class to work. The last case, 5-cycles
// on 4 980 vertices, has H_I's ranks too wide for five of them to fit in 64
// bits, so a count that packed an image into one word could not do its
// 5-subsets.
func TestMIMatchesOccurrenceReference(t *testing.T) {
	ba2 := gen.BarabasiAlbert(160, 2, gen.UniformLabels{K: 2}, 3)
	ba1 := gen.BarabasiAlbert(60, 2, gen.UniformLabels{K: 1}, 5)
	one := func(edges ...[2]int) *pattern.Pattern {
		labels := make([]graph.Label, 0, 5)
		for _, e := range edges {
			for len(labels) <= max(e[0], e[1]) {
				labels = append(labels, 1)
			}
		}
		return labeledPattern(labels, edges...)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		p    *pattern.Pattern
	}{
		{"edge", ba2, queryPatterns["edge"]},
		{"path", ba2, queryPatterns["path"]},
		{"star", ba2, queryPatterns["star"]},
		{"path4", ba2, queryPatterns["path4"]},
		{"triangle", ba2, queryPatterns["triangle"]},
		{"path5", ba2, labeledPattern([]graph.Label{1, 2, 1, 2, 1}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4})},
		{"one-label-edge", ba1, one([2]int{0, 1})},
		{"one-label-star", ba1, one([2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})},
		{"one-label-4-cycle", ba1, one([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})},
		{"one-label-paw", ba1, one([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{2, 3})},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2, 7} {
			for _, par := range []int{1, 4} {
				ctx := core.MustNewContext(c.g, c.p, core.Options{Shards: shards, Parallelism: par})
				if ctx.NumInstances() == 0 {
					t.Fatalf("%s has no instance", c.name)
				}
				requireMIMatchesReference(t, fmt.Sprintf("%s shards=%d par=%d", c.name, shards, par), ctx)
			}
		}
	}

	wide := core.MustNewContext(twinnedCycles(830), one([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 0}), core.Options{})
	if n := wide.OccurrenceHypergraph().NumVertices(); 5*bits.Len(uint(n-1)) <= 64 {
		t.Fatalf("%d ranks pack five to 64 bits: the wide case is not wide", n)
	}
	requireMIMatchesReference(t, "5-cycles", wide)
}

// FuzzMIMatchesReference holds MI and MNIk to referenceDistinctImages on a
// labeled graph and a connected pattern of two to five nodes decoded from the
// fuzz input, at the decoded parallelism over one and seven shards.
func FuzzMIMatchesReference(f *testing.F) {
	f.Add([]byte{})
	// A one-label triangle in K4.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// A one-label 3-leaf star in a 7-vertex wheel-like graph, two workers.
	f.Add([]byte{0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 2, 3, 4, 5, 6})
	// A two-label 5-node path in a labeled 8-cycle with chords.
	f.Add([]byte{1, 0, 3, 0, 1, 0, 1, 0, 0, 1, 2, 3, 0, 6, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 0, 4, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, par := decodeMIInput(data)
		for _, shards := range []int{1, 7} {
			ctx := core.MustNewContext(g, p, core.Options{Parallelism: par, Shards: shards})
			requireMIMatchesReference(t, fmt.Sprintf("graph %v pattern %v par=%d shards=%d", g.Edges(), p, par, shards), ctx)
		}
	})
}

// decodeMIInput reads a label count, a parallelism, a connected pattern of
// two to five nodes (a spanning tree, then extra edges from one bitmask) and
// a graph of up to 14 vertices whose edges are the remaining byte pairs.
func decodeMIInput(data []byte) (*graph.Graph, *pattern.Pattern, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	labels := 1 + next()%3
	par := 1 + next()%4
	k := 2 + next()%4
	pb := graph.NewBuilder("fuzz-pattern")
	for i := 0; i < k; i++ {
		pb.Vertex(graph.VertexID(i), graph.Label(1+next()%labels))
	}
	for i := 1; i < k; i++ {
		pb.Edge(graph.VertexID(next()%i), graph.VertexID(i))
	}
	pg := pb.MustBuild()
	extra := next()
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if extra&1 == 1 && !pg.HasEdge(graph.VertexID(i), graph.VertexID(j)) {
				pg.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
			}
			extra >>= 1
		}
	}
	n := 2 + next()%13
	g := graph.New("fuzz-graph")
	for i := 0; i < n; i++ {
		g.MustAddVertex(graph.VertexID(i), graph.Label(1+next()%labels))
	}
	for len(data) >= 2 {
		u, v := graph.VertexID(next()%n), graph.VertexID(next()%n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g, pattern.MustNew(pg), par
}
