package isomorph

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// TestUnconfinedPlanSharesLabelIndexes: an unconfined plan on the eval-stream
// graph (ER(2^15), two labels, 16 shards) allocates less than a copy of its
// root label's index would take — its buckets are the snapshot's own label
// indexes — and its roots, with the members below the degree bound skipped,
// are the label's vertices that pass it, ascending, numRoots of them. Every
// pattern of the workload is checked under its symmetry, as a streamed
// evaluation plans it; each has members below its root's degree bound in
// nearly every shard.
func TestUnconfinedPlanSharesLabelIndexes(t *testing.T) {
	const n = 1 << 15
	snap := gen.ErdosRenyi(n, 6/float64(n-1), gen.UniformLabels{K: 2}, 1).FreezeSharded(graph.FreezeOptions{Shards: 16})
	for _, p := range []*pattern.Pattern{orderEdge, orderPath, orderTriangle, orderStar} {
		opts := Options{Symmetry: NewSymmetry(p)}
		var pl *searchPlan
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pl = newSearchPlan(snap, p, opts)
		runtime.ReadMemStats(&after)
		if pl == nil {
			t.Fatalf("%v: no plan", p)
		}
		index := 0
		for s := range snap.NumShards() {
			index += 4 * len(snap.ShardIndexesWithLabel(s, pl.label[0]))
		}
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated >= uint64(index) {
			t.Errorf("%v: planning allocated %d B, the root label's index is %d B", p, allocated, index)
		}

		var got, want []int32
		for _, bucket := range pl.rootsByShard {
			for _, c := range bucket {
				if pl.isRoot(c) {
					got = append(got, c)
				}
			}
		}
		for c := int32(0); c < n; c++ {
			if snap.LabelAt(c) == pl.label[0] && snap.DegreeAt(c) >= pl.minDeg[0] {
				want = append(want, c)
			}
		}
		if !slices.Equal(got, want) || pl.numRoots != len(want) {
			t.Errorf("%v: %d roots (numRoots %d), want the %d vertices labeled %d of degree >= %d", p, len(got), pl.numRoots, len(want), pl.label[0], pl.minDeg[0])
		}
		if len(want) == index/4 {
			t.Errorf("%v: no member of the root label's index is below its degree bound %d; the test shows nothing", p, pl.minDeg[0])
		}
	}
}
