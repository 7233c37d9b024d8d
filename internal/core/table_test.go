package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// TestDomainTableRefcounts pins the contract between a pass table and the
// maintained state on its own, in the layout both really have: one row per
// node orbit. The pattern is a one-label edge, whose two nodes are one orbit,
// so a representative counts both its images into the one row and the row's
// size is the domain size of either node. A vertex stays in the domain until
// the last instance through it is folded out, and folding out an instance
// that was never folded in panics naming the orbit by its first node and the
// data vertex — its VertexID, not the dense index the pass counted it under
// (the snapshot's IDs 10, 20, 21 sit at indexes 0, 1, 2).
func TestDomainTableRefcounts(t *testing.T) {
	p := pattern.MustNew(graph.NewBuilder("edge").Vertices(1, 5, 9).Edge(5, 9).MustBuild())
	snap := graph.NewBuilder("data").Vertices(1, 10, 20, 21).Edge(10, 20).Edge(10, 21).MustBuild().Freeze()
	c := newInstanceCounter(p)
	if c.rows != 1 || c.occurrences(1) != 2 {
		t.Fatalf("one-label edge: %d rows, %d occurrences per instance; want one orbit and two automorphisms", c.rows, c.occurrences(1))
	}
	// single is the pass table of one representative, mapping node 5 to u and
	// node 9 to v.
	single := func(u, v graph.VertexID) *accumulator {
		a := &accumulator{count: 1, table: newDomainTable(snap, c.rowLayout, nil)}
		for i, image := range []graph.VertexID{u, v} {
			x, ok := snap.IndexOf(image)
			if !ok {
				t.Fatalf("vertex %d is not in the snapshot", image)
			}
			a.table.bump(c.rowOf[i], x)
		}
		return a
	}

	state := newDomainState(c.rowLayout)
	state.fold(single(10, 20), +1)
	state.fold(single(21, 10), +1) // the same row whichever occurrence represents {10, 21}
	if got := state.sizes(); !reflect.DeepEqual(got, []int{3, 3}) || state.count != 2 {
		t.Fatalf("after two folds: sizes %v count %d, want [3 3] and 2", got, state.count)
	}
	state.fold(single(20, 10), -1)
	if got := state.sizes(); !reflect.DeepEqual(got, []int{2, 2}) {
		t.Fatalf("sizes after folding one out = %v, want [2 2]: vertex 10 still has an instance", got)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "the orbit of node 5 vertex 20") {
			t.Fatalf("folding out a never-folded instance: panic %q, want one naming the orbit of node 5 and vertex 20", msg)
		}
	}()
	state.fold(single(10, 20), -1)
}
