package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// TestDomainTableRefcounts pins the table's contract on its own: a vertex
// stays in a node's domain until the last occurrence through it is merged
// out, and merging out an occurrence that was never added panics naming the
// pattern node and the data vertex.
func TestDomainTableRefcounts(t *testing.T) {
	p := pattern.MustNew(graph.NewBuilder("edge").Vertices(1, 5, 9).Edge(5, 9).MustBuild())
	single := func(u, v graph.VertexID) domainTable {
		o, err := isomorph.NewOccurrence(p, map[pattern.NodeID]graph.VertexID{5: u, 9: v})
		if err != nil {
			t.Fatal(err)
		}
		one := newDomainTable(p.Nodes())
		one.add(o)
		return one
	}

	table := newDomainTable(p.Nodes())
	table.merge(single(10, 20), +1)
	table.merge(single(10, 21), +1)
	if got := table.sizes(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("sizes after two adds = %v, want [1 2]", got)
	}
	table.merge(single(10, 20), -1)
	if got := table.sizes(); !reflect.DeepEqual(got, []int{1, 1}) {
		t.Fatalf("sizes after one removal = %v, want [1 1]: vertex 10 still has an occurrence", got)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "node 9 vertex 20") {
			t.Fatalf("merging out a never-added occurrence: panic %q, want one naming node 9 vertex 20", msg)
		}
	}()
	table.merge(single(10, 20), -1)
}
