package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// TestDomainTableRefcounts pins the contract of the maintained state on its
// own, in the layout it really has: one row per node orbit. The pattern is a
// one-label edge, whose two nodes are one orbit, so an instance counts both its
// images into the one row and the row's size is the domain size of either
// node. The two instances {10, 20} and {10, 21} get in both ways a state is
// written — folded from the table of a complete pass (rebuild), which counted
// them under the snapshot's dense indexes (IDs 10, 20, 21 sit at 0, 1, 2), and
// applied one representative at a time (a delta pass) — and from either start
// a vertex stays in the domain until the last instance through it is applied
// out, and applying out an instance that was never in panics naming the orbit
// by its first node and the data vertex.
func TestDomainTableRefcounts(t *testing.T) {
	p := pattern.MustNew(graph.NewBuilder("edge").Vertices(1, 5, 9).Edge(5, 9).MustBuild())
	snap := graph.NewBuilder("data").Vertices(1, 10, 20, 21).Edge(10, 20).Edge(10, 21).MustBuild().Freeze()
	c := newInstanceCounter(p)
	if c.rows != 1 || c.occurrences(1) != 2 {
		t.Fatalf("one-label edge: %d rows, %d occurrences per instance; want one orbit and two automorphisms", c.rows, c.occurrences(1))
	}
	// rep is the occurrence mapping node 5 to u and node 9 to v.
	rep := func(u, v graph.VertexID) *isomorph.Occurrence {
		o, err := isomorph.NewOccurrence(p, map[pattern.NodeID]graph.VertexID{5: u, 9: v})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	// The same row whichever occurrence represents {10, 21}.
	adds := []*isomorph.Occurrence{rep(10, 20), rep(21, 10)}

	for name, add := range map[string]func(*domainState){
		"folded from a pass table": func(state *domainState) {
			a := &accumulator{table: newDomainTable(snap, c.rowLayout)}
			for _, o := range adds {
				a.count++
				a.table.addListed(o)
			}
			state.fold(a)
		},
		"applied by representative": func(state *domainState) {
			for _, o := range adds {
				state.apply(o, +1)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			state := newDomainState(c.rowLayout)
			add(state)
			if got := state.sizes(); !reflect.DeepEqual(got, []int{3, 3}) || state.count != 2 {
				t.Fatalf("after two adds: sizes %v count %d, want [3 3] and 2", got, state.count)
			}
			state.apply(rep(20, 10), -1)
			if got := state.sizes(); !reflect.DeepEqual(got, []int{2, 2}) || state.count != 1 {
				t.Fatalf("after applying one out: sizes %v count %d, want [2 2] and 1: vertex 10 still has an instance", got, state.count)
			}

			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "the orbit of node 5 vertex 20") {
					t.Fatalf("applying out a never-added instance: panic %q, want one naming the orbit of node 5 and vertex 20", msg)
				}
			}()
			state.apply(rep(10, 20), -1)
		})
	}
}
