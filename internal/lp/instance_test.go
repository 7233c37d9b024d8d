package lp

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// instancePattern builds a pattern from node labels and edges over node
// positions.
func instancePattern(labels []graph.Label, edges ...[2]int) *pattern.Pattern {
	b := graph.NewBuilder("pattern")
	for i, l := range labels {
		b.Vertex(graph.VertexID(i), l)
	}
	for _, e := range edges {
		b.Edge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	return pattern.MustNew(b.MustBuild())
}

// TestSolveInstanceHypergraphMatchesReference holds Solve on the instance
// hypergraph H_I — one edge per instance, in the order of each instance's
// smallest automorphic copy, which is how a materialized core.Context lists
// them — to the reference solver on the full occurrence hypergraph H_O, at
// the sizes the benchmark solves: the same Value and Cover bits after the
// same number of pivots, and each instance's y on the first copy of it in
// H_O, every other copy zero. The cases are the 3-leaf star (|Aut| = 6) and
// the path of four on BA(240, 2, 2 labels, seed 1), and a one-label path of
// three (|Aut| = 2) on a triangle-rich random graph. There the three paths
// of one triangle are distinct instances over one vertex set, as are the
// paths of four around one labeled 4-cycle of the BA graph, so H_I still
// repeats vertex sets and the solver's duplicate-column collapse still has
// work to do.
func TestSolveInstanceHypergraphMatchesReference(t *testing.T) {
	ba := gen.BarabasiAlbert(240, 2, gen.UniformLabels{K: 2}, 1).Freeze()
	cases := []struct {
		name       string
		snap       *graph.Snapshot
		p          *pattern.Pattern
		sharedSets bool
	}{
		{"star/ba240", ba, instancePattern([]graph.Label{1, 2, 2, 2}, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}), false},
		{"path4/ba240", ba, instancePattern([]graph.Label{1, 2, 1, 2}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}), true},
		{"path3/er40", gen.ErdosRenyi(40, 0.25, gen.UniformLabels{K: 1}, 3).Freeze(), instancePattern([]graph.Label{1, 1, 1}, [2]int{0, 1}, [2]int{1, 2}), true},
	}
	counter := obs.Default.Counter("repro_lp_pivots_total")
	for _, tc := range cases {
		full := isomorph.EnumerateSnapshot(tc.snap, tc.p, isomorph.Options{Parallelism: 1})
		sym := isomorph.NewSymmetry(tc.p)
		instances := isomorph.EnumerateSnapshot(tc.snap, tc.p, isomorph.Options{Parallelism: 1, Symmetry: sym})
		if len(instances)*sym.Order() != len(full) {
			t.Fatalf("%s: %d instances × |Aut| %d, %d occurrences", tc.name, len(instances), sym.Order(), len(full))
		}
		ho, hi := hypergraph.New(), hypergraph.New()
		for _, o := range full {
			ho.MustAddEdge(o.VertexSet())
		}
		for _, in := range instances {
			hi.MustAddEdge(in.VertexSet())
		}
		repeats := 0
		for e, first := range hi.EdgeClasses() {
			if int(first) != e {
				repeats++
			}
		}
		if (repeats > 0) != tc.sharedSets {
			t.Fatalf("%s: %d instances repeat an earlier instance's vertex set", tc.name, repeats)
		}

		want, wantPivots := referenceSolve(ho)
		before := counter.Value()
		got := Solve(hi)
		pivots := int(counter.Value() - before)
		if got.Status != Optimal || got.Status != want.Status || math.Float64bits(got.Value) != math.Float64bits(want.Value) || !sameBits(got.Cover, want.Cover) {
			t.Fatalf("%s: H_I gives ν = %v (%v), H_O's reference %v (%v), or their covers differ", tc.name, got.Value, got.Status, want.Value, want.Status)
		}
		if pivots != wantPivots {
			t.Fatalf("%s: %d pivots on H_I, the reference took %d on H_O", tc.name, pivots, wantPivots)
		}
		// The instances are a subsequence of the full list: each is its
		// instance's first copy there.
		i := 0
		for e, o := range full {
			y := 0.0
			if i < len(instances) && o.Compare(instances[i]) == 0 {
				y = got.Packing[i]
				i++
			}
			if math.Float64bits(want.Packing[e]) != math.Float64bits(y) {
				t.Fatalf("%s: H_O edge %d has y = %v, H_I gives its instance %v", tc.name, e, want.Packing[e], y)
			}
		}
		if i != len(instances) {
			t.Fatalf("%s: only %d of %d instances are first copies in the full list", tc.name, i, len(instances))
		}
		t.Logf("%s: %d instances (%d repeating a vertex set), %d occurrences, ν = %v, %d pivots", tc.name, len(instances), repeats, len(full), got.Value, pivots)
	}
}
