package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// TestDomainTableRefcounts pins the contract between a pass table and the
// maintained state on its own: a vertex stays in a node's domain until the
// last occurrence through it is folded out, and folding out an occurrence
// that was never folded in panics naming the pattern node and the data
// vertex — its VertexID, not the dense index the pass counted it under (the
// snapshot's IDs 10, 20, 21 sit at indexes 0, 1, 2).
func TestDomainTableRefcounts(t *testing.T) {
	p := pattern.MustNew(graph.NewBuilder("edge").Vertices(1, 5, 9).Edge(5, 9).MustBuild())
	snap := graph.NewBuilder("data").Vertices(1, 10, 20, 21).Edge(10, 20).Edge(10, 21).MustBuild().Freeze()
	single := func(u, v graph.VertexID) *accumulator {
		o, err := isomorph.NewOccurrence(p, map[pattern.NodeID]graph.VertexID{5: u, 9: v})
		if err != nil {
			t.Fatal(err)
		}
		return scan(snap, p, []*isomorph.Occurrence{o})
	}

	state := newDomainState(p.Nodes())
	state.fold(single(10, 20), +1)
	state.fold(single(10, 21), +1)
	if got := state.sizes(); !reflect.DeepEqual(got, []int{1, 2}) || state.count != 2 {
		t.Fatalf("after two folds: sizes %v count %d, want [1 2] and 2", got, state.count)
	}
	state.fold(single(10, 20), -1)
	if got := state.sizes(); !reflect.DeepEqual(got, []int{1, 1}) {
		t.Fatalf("sizes after folding one out = %v, want [1 1]: vertex 10 still has an occurrence", got)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "node 9 vertex 20") {
			t.Fatalf("folding out a never-folded occurrence: panic %q, want one naming node 9 vertex 20", msg)
		}
	}()
	state.fold(single(10, 20), -1)
}
