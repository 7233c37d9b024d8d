package isomorph_test

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// starPattern returns a 4-node star with a label-1 center and label-2
// leaves; which node roots the search order is up to the planner (resolve it
// through isomorph.Explain when a test depends on it).
func starPattern() *pattern.Pattern {
	return pattern.MustNew(graph.NewBuilder("star").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Vertex(3, 2).
		Star(0, 1, 2, 3).
		MustBuild())
}

// TestEnumerateSnapshotMatchesGraphEnumeration pins the list to the snapshot
// it is taken from and to nothing else: every shard geometry and parallelism
// of the same graph yields the sequence the sequential search of its default
// freeze does.
func TestEnumerateSnapshotMatchesGraphEnumeration(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 7)
	p := starPattern()
	want := occurrenceKeys(isomorph.EnumerateSnapshot(g.Freeze(), p, isomorph.Options{Parallelism: 1}))
	if len(want) == 0 {
		t.Fatal("workload enumerated no occurrences; test needs a non-trivial set")
	}
	for _, shards := range []int{1, 2, 7} {
		for _, par := range []int{1, 4} {
			got := occurrenceKeys(isomorph.EnumerateSnapshot(sharded(g, shards), p, isomorph.Options{Parallelism: par}))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d par=%d: snapshot enumeration diverged: %d occurrences, want %d",
					shards, par, len(got), len(want))
			}
		}
	}
}

// TestEnumerateSnapshotIsHistorical checks that a retained snapshot keeps
// answering with pre-mutation state: mutations that add occurrences are
// visible through a fresh freeze but not through the old snapshot.
func TestEnumerateSnapshotIsHistorical(t *testing.T) {
	g := graph.NewBuilder("hist").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Vertex(3, 2).
		Star(0, 1, 2, 3).
		MustBuild()
	p := starPattern()

	old := g.Freeze()
	before := occurrenceKeys(isomorph.EnumerateSnapshot(old, p, isomorph.Options{}))

	g.MustAddVertex(4, 2)
	g.MustAddEdge(0, 4) // the center gains a leaf: new stars appear

	after := occurrenceKeys(isomorph.EnumerateSnapshot(g.Freeze(), p, isomorph.Options{}))
	if len(after) <= len(before) {
		t.Fatalf("mutation added no occurrences (%d -> %d); workload broken", len(before), len(after))
	}
	if got := occurrenceKeys(isomorph.EnumerateSnapshot(old, p, isomorph.Options{})); !reflect.DeepEqual(got, before) {
		t.Fatalf("old snapshot enumeration changed after mutation: %d occurrences, want %d", len(got), len(before))
	}
}
