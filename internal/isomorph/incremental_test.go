package isomorph_test

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
)

// TestEnumerateAfterIncrementalRefreeze pins down that the incremental
// shard-level refreeze is invisible to the enumeration engine: interleaving
// AddEdge/AddVertex with enumerations (each over a refreeze of the mutated
// graph) yields exactly the occurrence sequence of a from-scratch graph,
// at every shard count and parallelism. Run under -race this also checks
// that refreezing does not write into shards shared with earlier snapshots.
func TestEnumerateAfterIncrementalRefreeze(t *testing.T) {
	pat := trianglePattern(1)
	for _, shards := range []int{1, 2, 7} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/par=%d", shards, par), func(t *testing.T) {
				g := gen.BarabasiAlbert(200, 2, gen.UniformLabels{K: 2}, 9)
				opts := isomorph.Options{Parallelism: par}
				sharded(g, shards) // freeze the pre-mutation snapshot

				next := graph.VertexID(10_000)
				ids := g.SortedVertices()
				for step := 0; step < 5; step++ {
					// Close a wedge into a triangle, then bolt on a fresh
					// vertex, so both mutation kinds dirty shards.
					u, v := ids[step*13], ids[step*17+40]
					if u != v && !g.HasEdge(u, v) {
						g.MustAddEdge(u, v)
					}
					g.MustAddVertex(next, 1)
					g.MustAddEdge(next, u)
					next++

					got := occurrenceKeys(isomorph.EnumerateSnapshot(sharded(g, shards), pat, opts))
					want := occurrenceKeys(isomorph.EnumerateSnapshot(sharded(g.Clone(), shards), pat, isomorph.Options{Parallelism: 1}))
					if len(got) != len(want) {
						t.Fatalf("step %d: %d occurrences after refreeze, scratch clone has %d", step, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("step %d: occurrence %d = %s, scratch clone has %s", step, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}
