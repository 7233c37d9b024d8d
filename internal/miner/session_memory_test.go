package miner_test

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/miner"
)

// TestSessionStateIsOneBitPerOrbitVertex holds a session's open on BA(2^14, 2)
// with four labels, which runs one complete pass per tracked pattern and keeps
// its presence rows, to less than one byte allocated per (orbit, vertex)
// summed over the tracked patterns: a 32-bit counter per (orbit, vertex) in
// the pass tables, or a map entry per domain member, would each take more on
// their own.
func TestSessionStateIsOneBitPerOrbitVertex(t *testing.T) {
	const n = 1 << 14
	g := gen.BarabasiAlbert(n, 2, gen.UniformLabels{K: 4}, 1)
	cfg := miner.Config{MinSupport: n / 40, MaxPatternSize: 3, EnumShards: 1, EnumParallelism: 1, Parallelism: 1}
	g.FreezeSharded(graph.FreezeOptions{Shards: 1}) // the snapshot is the graph's, not the session's
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	inc, err := miner.NewIncremental(g, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()

	cells := 0
	for _, d := range inc.TrackedContexts() {
		cells += isomorph.NewSymmetry(d.Pattern()).NumOrbits() * n
	}
	if len(inc.TrackedContexts()) < 10 {
		t.Fatalf("the session tracks %d patterns; the bound needs a real lattice", len(inc.TrackedContexts()))
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d tracked patterns, %d (orbit, vertex) cells, open allocated %d B", len(inc.TrackedContexts()), cells, allocated)
	if allocated >= uint64(cells) {
		t.Fatalf("opening the session allocated %d B, want under %d: one byte per (orbit, vertex) of the %d tracked patterns", allocated, cells, len(inc.TrackedContexts()))
	}
}
