package miner_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/miner"
	"repro/internal/obs"
)

// requireTrackedExact holds the state of every pattern inc tracks to an
// unconfined core.NewDeltaContextAt on g's current snapshot at the given shard
// count: instances, occurrences and MNI domain sizes. It returns the roots
// the reference builds searched (repro_enum_roots_total).
func requireTrackedExact(t *testing.T, inc *miner.Incremental, g *graph.Graph, shards int, tag string) uint64 {
	t.Helper()
	snap := g.FreezeSharded(graph.FreezeOptions{Shards: shards})
	roots := obs.Default.CounterValue("repro_enum_roots_total")
	for _, d := range inc.TrackedContexts() {
		ref, _, err := core.NewDeltaContextAt(g, snap, d.Pattern(), core.Options{Parallelism: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumInstances() != ref.NumInstances() || d.NumOccurrences() != ref.NumOccurrences() ||
			!reflect.DeepEqual(d.MNIDomainSizes(), ref.MNIDomainSizes()) {
			t.Fatalf("%s: %s tracked with %d instances / %d occurrences / domains %v, an unconfined build has %d / %d / %v",
				tag, d.Pattern(), d.NumInstances(), d.NumOccurrences(), d.MNIDomainSizes(),
				ref.NumInstances(), ref.NumOccurrences(), ref.MNIDomainSizes())
		}
	}
	return obs.Default.CounterValue("repro_enum_roots_total") - roots
}

// mutateSession applies batch b of a fixed script to g: it toggles three
// vertex pairs — adds the edge when it is absent, removes it when present —
// and in batch 1 also adds a vertex of a label g has not had, wired to the two
// lowest IDs, so the session must seed and extend anew.
func mutateSession(g *graph.Graph, b int) {
	ids := g.SortedVertices()
	n := len(ids)
	for k := 0; k < 3; k++ {
		u, v := ids[(b*5+k*3)%n], ids[(b*7+k*5+1)%n]
		switch {
		case u == v:
		case g.HasEdge(u, v):
			g.MustRemoveEdge(u, v)
		default:
			g.MustAddEdge(u, v)
		}
	}
	if b == 1 {
		x := ids[n-1] + 1
		g.MustAddVertex(x, 9)
		g.MustAddEdge(x, ids[0])
		g.MustAddEdge(x, ids[1])
	}
}

// checkSessionOpenMatchesReference opens a session on a copy of g at every
// shard count in {1, 2, 7}, enumeration parallelism in {1, 4} and candidate
// parallelism in {1, 3}. Every tracked pattern's state must equal an
// unconfined build's, the result and the counts of candidates, pruned and
// frequent patterns, duplicates, extensions and codes a cold Mine's; then
// three mutation batches
// follow, and after each Refresh both must hold again. It returns the roots
// the sequential open searched and the roots the unconfined builds of the
// same tracked patterns searched.
func checkSessionOpenMatchesReference(t *testing.T, g *graph.Graph, minSupport float64, maxSize int) (openRoots, refRoots uint64) {
	t.Helper()
	for _, shards := range []int{1, 2, 7} {
		for _, enumPar := range []int{1, 4} {
			for _, par := range []int{1, 3} {
				cfg := miner.Config{MinSupport: minSupport, MaxPatternSize: maxSize, EnumShards: shards, EnumParallelism: enumPar, Parallelism: par}
				tag := fmt.Sprintf("graph %v minsup %v maxsize %d shards %d enum %d par %d", g.Edges(), minSupport, maxSize, shards, enumPar, par)
				h := g.Clone()
				before := obs.Default.CounterValue("repro_enum_roots_total")
				inc, err := miner.NewIncremental(h, cfg)
				if err != nil {
					t.Fatalf("%s: NewIncremental: %v", tag, err)
				}
				opened := obs.Default.CounterValue("repro_enum_roots_total") - before
				ref := requireTrackedExact(t, inc, h, shards, tag+", open")
				if shards == 1 && enumPar == 1 && par == 1 {
					openRoots, refRoots = opened, ref
				}
				cold := freshMine(t, h, cfg)
				requireSameMining(t, inc.Result(), cold, tag+", open")
				if w, c := inc.Result().Stats, cold.Stats; w.Candidates != c.Candidates || w.Pruned != c.Pruned || w.Frequent != c.Frequent ||
					w.Duplicates != c.Duplicates || w.Extensions != c.Extensions || w.Codes != c.Codes {
					t.Fatalf("%s: the open counted %+v, a cold mine %+v", tag, w, c)
				}
				for b := 0; b < 3; b++ {
					mutateSession(h, b)
					res, err := inc.Refresh()
					if err != nil {
						t.Fatalf("%s: Refresh %d: %v", tag, b, err)
					}
					requireTrackedExact(t, inc, h, shards, fmt.Sprintf("%s, refresh %d", tag, b))
					requireSameMining(t, res, freshMine(t, h, cfg), fmt.Sprintf("%s, refresh %d", tag, b))
				}
				inc.Close()
			}
		}
	}
	return openRoots, refRoots
}

// TestSessionOpenMatchesReference runs the differential check on generated
// graphs with a pruned boundary, and requires the open to search fewer roots
// than building the same tracked patterns unconfined: the first passes are
// really confined.
func TestSessionOpenMatchesReference(t *testing.T) {
	for _, c := range []struct {
		g          *graph.Graph
		minSupport float64
		maxSize    int
	}{
		{gen.BarabasiAlbert(60, 2, gen.UniformLabels{K: 3}, 13), 3, 4},
		{gen.BarabasiAlbert(90, 3, gen.UniformLabels{K: 2}, 7), 6, 4},
		{gen.ErdosRenyi(50, 0.08, gen.UniformLabels{K: 3}, 5), 2, 4},
	} {
		open, ref := checkSessionOpenMatchesReference(t, c.g, c.minSupport, c.maxSize)
		t.Logf("%d vertices: the open searched %d roots, unconfined builds %d", c.g.NumVertices(), open, ref)
		if open >= ref {
			t.Fatalf("%d vertices: the open searched %d roots, unconfined builds of its patterns %d", c.g.NumVertices(), open, ref)
		}
	}
}

// FuzzSessionOpenMatchesReference holds NewIncremental, and the refreshes
// after it, to unconfined builds and cold mines on a graph, labels, threshold
// and size cap decoded from the fuzz input (decodeMiningInput), over every
// setting checkSessionOpenMatchesReference sweeps.
func FuzzSessionOpenMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 3, 1, 4})
	f.Add([]byte{9, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 1, 2, 1, 3, 2, 4, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0, 2, 6, 3, 7})
	f.Add([]byte{14, 2, 0, 1, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 0, 7, 3, 10, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, minSupport, maxSize := decodeMiningInput(data)
		checkSessionOpenMatchesReference(t, g, minSupport, maxSize)
	})
}
