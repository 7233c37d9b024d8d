package isomorph_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
	"repro/internal/store"
)

// sharded freezes g into at most the given number of shards (0 keeps the
// automatic sharding): enumeration runs on snapshots, so the tests decide the
// shard geometry where they freeze.
func sharded(g *graph.Graph, shards int) *graph.Snapshot {
	return g.FreezeSharded(graph.FreezeOptions{Shards: shards})
}

// occurrenceKeys returns the sorted canonical keys of an occurrence slice.
func occurrenceKeys(occs []*isomorph.Occurrence) []string {
	out := make([]string, len(occs))
	for i, o := range occs {
		out[i] = o.Key()
	}
	return out
}

// TestEnumerateParallelDeterminism checks the engine's central contract: for
// every paper figure fixture, every Parallelism setting produces the
// identical occurrence sequence (the canonical sorted order), so parallel and
// sequential enumeration are interchangeable. Run under -race this also
// exercises the worker pool for data races.
func TestEnumerateParallelDeterminism(t *testing.T) {
	for _, fig := range dataset.AllFigures() {
		want := isomorph.EnumerateSnapshot(fig.Graph.Freeze(), fig.Pattern, isomorph.Options{Parallelism: 1})
		wantKeys := occurrenceKeys(want)
		for _, par := range []int{0, 2, 3, 8} {
			got := isomorph.EnumerateSnapshot(fig.Graph.Freeze(), fig.Pattern, isomorph.Options{Parallelism: par})
			gotKeys := occurrenceKeys(got)
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("%s: Parallelism=%d returned %d occurrences, sequential returned %d",
					fig.Name, par, len(gotKeys), len(wantKeys))
			}
			for i := range wantKeys {
				if gotKeys[i] != wantKeys[i] {
					t.Fatalf("%s: Parallelism=%d occurrence %d = %s, sequential has %s",
						fig.Name, par, i, gotKeys[i], wantKeys[i])
				}
			}
		}
	}
}

// TestEnumerateParallelDeterminismGenerated repeats the determinism check on
// a generated graph large enough that the parallel path actually fans out
// (the figure fixtures fall below the engine's auto-mode size threshold, so
// this is the test that exercises true multi-worker merging).
func TestEnumerateParallelDeterminismGenerated(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 11)
	pat := trianglePattern(1)
	want := occurrenceKeys(isomorph.EnumerateSnapshot(g.Freeze(), pat, isomorph.Options{Parallelism: 1}))
	for _, par := range []int{0, 2, 4, 16} {
		got := occurrenceKeys(isomorph.EnumerateSnapshot(g.Freeze(), pat, isomorph.Options{Parallelism: par}))
		if len(got) != len(want) {
			t.Fatalf("Parallelism=%d returned %d occurrences, sequential returned %d", par, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Parallelism=%d occurrence %d = %s, sequential has %s", par, i, got[i], want[i])
			}
		}
	}
}

// TestEnumerateShardDeterminism pins the acceptance contract of the sharded
// snapshot work: the EnumerateSnapshot output is byte-identical across shard
// counts {1, 2, 7} and parallelism {1, 4} on every paper figure and on a
// generated graph large enough for the worker pool to fan out. Run under
// -race this also exercises the shard-first stealing scheduler for data races.
func TestEnumerateShardDeterminism(t *testing.T) {
	type workload struct {
		name string
		g    *graph.Graph
		p    *pattern.Pattern
	}
	var workloads []workload
	for _, fig := range dataset.AllFigures() {
		workloads = append(workloads, workload{name: fig.Name, g: fig.Graph, p: fig.Pattern})
	}
	workloads = append(workloads, workload{
		name: "ba300/triangle",
		g:    gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 11),
		p:    trianglePattern(1),
	})
	for _, wl := range workloads {
		want := occurrenceKeys(isomorph.EnumerateSnapshot(wl.g.Freeze(), wl.p, isomorph.Options{}))
		for _, shards := range []int{1, 2, 7} {
			for _, par := range []int{1, 4} {
				got := occurrenceKeys(isomorph.EnumerateSnapshot(sharded(wl.g, shards), wl.p, isomorph.Options{Parallelism: par}))
				if len(got) != len(want) {
					t.Fatalf("%s: Shards=%d Parallelism=%d returned %d occurrences, unsharded returned %d",
						wl.name, shards, par, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: Shards=%d Parallelism=%d occurrence %d = %s, unsharded has %s",
							wl.name, shards, par, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestEnumerateOccurrencesSpanShards builds a workload where occurrences
// necessarily straddle shard boundaries — a long two-label path sharded into
// two-vertex shards — and checks that cross-shard adjacency is followed
// correctly: the sharded occurrence set matches the unsharded one and at
// least one occurrence touches two or more distinct shards.
func TestEnumerateOccurrencesSpanShards(t *testing.T) {
	g := graph.New("path")
	const n = 14
	for v := 0; v < n; v++ {
		g.MustAddVertex(graph.VertexID(v), graph.Label(v%2+1))
	}
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	// Pattern: a 3-node path 1-2-1, so every occurrence covers three
	// consecutive path vertices — guaranteed to cross a 2-vertex shard.
	pg := graph.New("p")
	pg.MustAddVertex(0, 1)
	pg.MustAddVertex(1, 2)
	pg.MustAddVertex(2, 1)
	pg.MustAddEdge(0, 1)
	pg.MustAddEdge(1, 2)
	pat := pattern.MustNew(pg)

	const shards = 7 // 14 vertices -> 2-vertex shards
	want := occurrenceKeys(isomorph.EnumerateSnapshot(g.Freeze(), pat, isomorph.Options{}))
	if len(want) == 0 {
		t.Fatal("workload produced no occurrences")
	}
	snap := sharded(g, shards)
	if snap.NumShards() < 2 {
		t.Fatalf("snapshot built %d shards, want >= 2", snap.NumShards())
	}
	for _, par := range []int{1, 4} {
		occs := isomorph.EnumerateSnapshot(snap, pat, isomorph.Options{Parallelism: par})
		got := occurrenceKeys(occs)
		if len(got) != len(want) {
			t.Fatalf("Parallelism=%d: %d occurrences, want %d", par, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Parallelism=%d occurrence %d = %s, want %s", par, i, got[i], want[i])
			}
		}
		spanning := 0
		for _, o := range occs {
			seen := make(map[int]bool)
			for _, v := range o.Images() {
				i, ok := snap.IndexOf(v)
				if !ok {
					t.Fatalf("image %d not in snapshot", v)
				}
				seen[snap.ShardOf(i)] = true
			}
			if len(seen) >= 2 {
				spanning++
			}
		}
		if spanning == 0 {
			t.Fatal("no occurrence spans two or more shards; the workload no longer exercises cross-shard matching")
		}
	}
}

// TestEnumerateFuncStreams checks the streaming API with one consumer shared
// by every worker: each occurrence of the list API is delivered exactly once,
// and a false from one consumer call halts every worker.
func TestEnumerateFuncStreams(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 11)
	snap := g.Freeze()
	pat := starPattern()
	want := isomorph.EnumerateSnapshot(snap, pat, isomorph.Options{})
	if len(want) < 1000 {
		t.Fatalf("only %d occurrences; workload too small to tell an early stop from a full run", len(want))
	}

	for _, par := range []int{1, 4} {
		var (
			mu   sync.Mutex
			seen = make(map[string]int)
		)
		shared := func(o *isomorph.Occurrence) bool {
			mu.Lock()
			seen[o.Key()]++
			mu.Unlock()
			return true
		}
		isomorph.EnumerateSnapshotWorkers(snap, pat, isomorph.Options{Parallelism: par},
			func(int) func(*isomorph.Occurrence) bool { return shared })
		if len(seen) != len(want) {
			t.Fatalf("Parallelism=%d: streamed %d distinct occurrences, want %d", par, len(seen), len(want))
		}
		for _, o := range want {
			if seen[o.Key()] != 1 {
				t.Errorf("Parallelism=%d: occurrence %s delivered %d times, want once", par, o.Key(), seen[o.Key()])
			}
		}

		// Early termination: only the first call, on whichever worker makes
		// it, refuses. Workers steal roots until none are left, so a single
		// worker that kept going would deliver all the rest.
		var delivered, refused atomic.Int64
		refuseOnce := func(*isomorph.Occurrence) bool {
			delivered.Add(1)
			return !refused.CompareAndSwap(0, 1)
		}
		isomorph.EnumerateSnapshotWorkers(snap, pat, isomorph.Options{Parallelism: par},
			func(int) func(*isomorph.Occurrence) bool { return refuseOnce })
		if got := delivered.Load(); got >= int64(len(want))/2 {
			t.Errorf("Parallelism=%d: one refusal still let %d of %d occurrences through", par, got, len(want))
		}
		if par == 1 && delivered.Load() != 1 {
			t.Errorf("sequential stopped consumer received %d occurrences, want 1", delivered.Load())
		}
	}
}

// TestEnumerateWorkersPerWorkerAccumulation checks the per-worker consumer
// contract: accumulating into unsynchronized worker-local state and merging
// afterwards reproduces the full occurrence set.
func TestEnumerateWorkersPerWorkerAccumulation(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 11)
	pat := trianglePattern(1)
	snap := g.Freeze()
	want := isomorph.EnumerateSnapshot(snap, pat, isomorph.Options{})

	// Workers must only touch state reached through their own consumer (the
	// enclosing buckets slice may be reallocated by later newYield calls
	// while earlier workers are already running).
	type bucket struct{ keys []string }
	var buckets []*bucket
	isomorph.EnumerateSnapshotWorkers(snap, pat, isomorph.Options{Parallelism: 4}, func(int) func(*isomorph.Occurrence) bool {
		b := &bucket{}
		buckets = append(buckets, b)
		return func(o *isomorph.Occurrence) bool {
			b.keys = append(b.keys, o.Key())
			return true
		}
	})
	merged := make(map[string]int)
	total := 0
	for _, b := range buckets {
		total += len(b.keys)
		for _, k := range b.keys {
			merged[k]++
		}
	}
	if total != len(want) || len(merged) != len(want) {
		t.Fatalf("workers delivered %d occurrences (%d distinct), want %d", total, len(merged), len(want))
	}
}

// TestEnumerateMaxOccurrencesParallelSafe pins the one cap rule: a positive
// MaxOccurrences means the first n occurrences of the sequential search
// order at every entry point, whatever Parallelism asks for. The list entry
// point returns the same capped list, and the streaming one delivers exactly
// the Parallelism: 1 prefix, in order, to a single worker.
func TestEnumerateMaxOccurrencesParallelSafe(t *testing.T) {
	fig := dataset.Figure2()
	snap := fig.Graph.Freeze()
	want := isomorph.EnumerateSnapshot(snap, fig.Pattern, isomorph.Options{MaxOccurrences: 2, Parallelism: 1})
	got := isomorph.EnumerateSnapshot(snap, fig.Pattern, isomorph.Options{MaxOccurrences: 2, Parallelism: 8})
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("caps not honored: sequential kept %d, parallel kept %d, want 2", len(want), len(got))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Errorf("capped occurrence %d differs: %s vs %s", i, got[i].Key(), want[i].Key())
		}
	}

	// Large enough that an uncapped Parallelism: 4 run really fans out.
	big := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 14).Freeze()
	star := starPattern()
	streamed := func(opts isomorph.Options) []string {
		var keys []string
		workers := 0
		isomorph.EnumerateSnapshotWorkers(big, star, opts, func(int) func(*isomorph.Occurrence) bool {
			workers++
			return func(o *isomorph.Occurrence) bool {
				keys = append(keys, o.Key())
				return true
			}
		})
		if workers != 1 {
			t.Fatalf("%+v: capped search started %d workers, want 1", opts, workers)
		}
		return keys
	}
	order := streamed(isomorph.Options{Parallelism: 1})
	if len(order) < 100 {
		t.Fatalf("only %d occurrences; workload too small to exercise the cap", len(order))
	}
	for _, max := range []int{1, 7, 64} {
		for _, par := range []int{1, 4, 8} {
			got := streamed(isomorph.Options{MaxOccurrences: max, Parallelism: par})
			if !reflect.DeepEqual(got, order[:max]) {
				t.Errorf("max=%d Parallelism=%d: delivered %v, want the sequential prefix %v", max, par, got, order[:max])
			}
		}
	}
}

// TestStopOnLastRootOfShardHalts is the regression test for a stop that lands
// on the last root candidate of a shard's bucket: the sequential drain must
// return there, not move on to the next shard. The graph is four disjoint
// 1–2 labelled edges, one per two-vertex shard, so every shard bucket holds
// exactly one matching root — the shape a pinned search has
// all the time. A consumer that has returned false is never called again, and
// a cap of one keeps one occurrence, at every entry point that drains.
func TestStopOnLastRootOfShardHalts(t *testing.T) {
	b := graph.NewBuilder("matching")
	for v := graph.VertexID(0); v < 8; v += 2 {
		b.Vertex(v, 1).Vertex(v+1, 2).Edge(v, v+1)
	}
	snap := b.MustBuild().FreezeSharded(graph.FreezeOptions{ShardSize: 2})
	if snap.NumShards() != 4 {
		t.Fatalf("froze into %d shards, want 4", snap.NumShards())
	}
	edge := pattern.MustNew(graph.NewBuilder("edge").Vertex(0, 1).Vertex(1, 2).Edge(0, 1).MustBuild())
	all := []int32{0, 1, 2, 3, 4, 5, 6, 7}

	// stopAfter returns a consumer that stops on its n-th occurrence and fails
	// the test if it is called after that.
	stopAfter := func(where string, n int, calls *int) func(*isomorph.Occurrence) bool {
		return func(*isomorph.Occurrence) bool {
			*calls++
			if *calls > n {
				t.Errorf("%s: consumer called %d times after stopping at %d", where, *calls-n, n)
			}
			return *calls < n
		}
	}
	for n := 1; n <= 3; n++ {
		for _, opts := range []isomorph.Options{{}, {Symmetry: isomorph.NewSymmetry(edge)}} {
			where := fmt.Sprintf("stop at %d, options %+v", n, opts)
			calls := 0
			opts.Parallelism = 1
			isomorph.EnumerateSnapshotWorkers(snap, edge, opts, func(int) func(*isomorph.Occurrence) bool {
				return stopAfter(where, n, &calls)
			})
			if calls != n {
				t.Errorf("%s: %d occurrences delivered, want %d", where, calls, n)
			}
			opts.Parallelism, opts.MaxOccurrences = 0, n
			if got := isomorph.EnumerateSnapshot(snap, edge, opts); len(got) != n {
				t.Errorf("MaxOccurrences %d, options %+v: %d occurrences returned", n, opts, len(got))
			}
		}
		for root := 0; root < 2; root++ {
			search := isomorph.NewPinnedSearch(snap, edge, nil, root)
			for run := 0; run < 2; run++ { // a stopped run leaves nothing behind for the next
				where := fmt.Sprintf("stop at %d, pinned at position %d, run %d", n, root, run)
				calls := 0
				search.Run(snap, all, stopAfter(where, n, &calls))
				if calls != n {
					t.Errorf("%s: %d occurrences delivered, want %d", where, calls, n)
				}
			}
		}
	}
}

// TestCountMatchesEnumerate checks a counting streaming consumer against the
// length of the materialized list, sequential and parallel.
func TestCountMatchesEnumerate(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 11)
	pat := trianglePattern(1)
	snap := g.Freeze()
	want := len(isomorph.EnumerateSnapshot(snap, pat, isomorph.Options{}))
	for _, par := range []int{1, 4} {
		var counts []*int
		isomorph.EnumerateSnapshotWorkers(snap, pat, isomorph.Options{Parallelism: par}, func(int) func(*isomorph.Occurrence) bool {
			n := new(int)
			counts = append(counts, n)
			return func(*isomorph.Occurrence) bool {
				*n++
				return true
			}
		})
		got := 0
		for _, n := range counts {
			got += *n
		}
		if got != want {
			t.Fatalf("Parallelism=%d: counted %d occurrences, EnumerateSnapshot returned %d", par, got, want)
		}
	}
}

// TestOccurrenceImageBinarySearch checks Image against MustImage across a
// pattern with non-dense node IDs (the paper's figures number nodes from 1).
func TestOccurrenceImageBinarySearch(t *testing.T) {
	fig := dataset.Figure9()
	occs := isomorph.EnumerateSnapshot(fig.Graph.Freeze(), fig.Pattern, isomorph.Options{})
	if len(occs) == 0 {
		t.Fatal("no occurrences on figure9")
	}
	for _, o := range occs {
		for i, n := range o.Nodes() {
			img, ok := o.Image(n)
			if !ok {
				t.Fatalf("Image(%d) reported missing node", n)
			}
			if img != o.Images()[i] {
				t.Errorf("Image(%d) = %d, want %d", n, img, o.Images()[i])
			}
		}
		if _, ok := o.Image(-999); ok {
			t.Error("Image(-999) found a nonexistent node")
		}
	}
}

// TestYieldedOccurrenceIsBorrowed pins the emit contract of the streaming
// entry point: on each worker every yield receives the same *Occurrence, a
// consumer that retained it sees the images of whatever was emitted last,
// and the Images()/Key() copies taken inside the yield stay what they were.
func TestYieldedOccurrenceIsBorrowed(t *testing.T) {
	snap := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 11).Freeze()
	pat := starPattern()
	want := make(map[string][]graph.VertexID)
	for _, o := range isomorph.EnumerateSnapshot(snap, pat, isomorph.Options{}) {
		want[o.Key()] = o.Images()
	}

	for _, par := range []int{1, 4} {
		type worker struct {
			lent   *isomorph.Occurrence // retained from the first yield
			moved  int                  // yields that received another pointer
			keys   []string
			images [][]graph.VertexID
		}
		var workers []*worker
		isomorph.EnumerateSnapshotWorkers(snap, pat, isomorph.Options{Parallelism: par}, func(int) func(*isomorph.Occurrence) bool {
			w := &worker{}
			workers = append(workers, w)
			return func(o *isomorph.Occurrence) bool {
				if w.lent == nil {
					w.lent = o
				} else if o != w.lent {
					w.moved++
				}
				w.keys = append(w.keys, o.Key())
				w.images = append(w.images, o.Images())
				return true
			}
		})

		seen := 0
		for _, w := range workers {
			if w.moved > 0 {
				t.Errorf("Parallelism=%d: %d of a worker's %d yields received a different *Occurrence than its first", par, w.moved, len(w.keys))
			}
			if len(w.keys) >= 2 {
				// Keys are distinct, so reading the last one means the
				// occurrence retained at the first yield was overwritten.
				first, last := w.keys[0], w.keys[len(w.keys)-1]
				if got := w.lent.Key(); got != last {
					t.Errorf("Parallelism=%d: the retained occurrence reads %s; the worker emitted %s first and %s last", par, got, first, last)
				}
			}
			for i, key := range w.keys {
				if !reflect.DeepEqual(w.images[i], want[key]) {
					t.Fatalf("Parallelism=%d: Images() copy of %s reads %v after the run", par, key, w.images[i])
				}
				seen++
			}
		}
		if seen != len(want) {
			t.Errorf("Parallelism=%d: copies of %d occurrences survived, want all %d", par, seen, len(want))
		}
	}
}

// TestLentOccurrenceCarriesDenseIndexes pins IndexAt: for every occurrence
// the streaming entry point lends, IndexAt(i) is the dense index of
// ImageAt(i) in the snapshot that was searched — at every shard geometry and
// parallelism, and over an mmap-backed store snapshot — and an occurrence
// that was not lent (listed, or built by hand) panics instead of answering.
// The graph's IDs are spread out (7, 10, 13, ...) so an index is never its ID.
func TestLentOccurrenceCarriesDenseIndexes(t *testing.T) {
	dense := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 2}, 11)
	g := graph.New("spread")
	for _, v := range dense.SortedVertices() {
		g.MustAddVertex(3*v+7, dense.MustLabelOf(v))
	}
	for _, e := range dense.Edges() {
		g.MustAddEdge(3*e.U+7, 3*e.V+7)
	}
	pat := starPattern()

	snaps := map[string]*graph.Snapshot{}
	for _, shards := range []int{1, 2, 7} {
		snaps[fmt.Sprintf("shards=%d", shards)] = sharded(g, shards)
	}
	dir := t.TempDir()
	if err := store.Write(sharded(g, 4), dir); err != nil {
		t.Fatalf("writing store: %v", err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	defer st.Close()
	snaps["store"] = st.Snapshot()

	for name, snap := range snaps {
		for _, par := range []int{1, 4} {
			var checked []int
			isomorph.EnumerateSnapshotWorkers(snap, pat, isomorph.Options{Parallelism: par}, func(w int) func(*isomorph.Occurrence) bool {
				checked = append(checked, 0)
				return func(o *isomorph.Occurrence) bool {
					for i := 0; i < o.Len(); i++ {
						want, ok := snap.IndexOf(o.ImageAt(i))
						if got := o.IndexAt(i); !ok || got != want {
							t.Errorf("%s par=%d: %s has IndexAt(%d) = %d, IndexOf(%d) = %d (found %v)", name, par, o, i, got, o.ImageAt(i), want, ok)
							return false
						}
					}
					checked[w]++
					return true
				}
			})
			total := 0
			for _, n := range checked {
				total += n
			}
			if total == 0 {
				t.Fatalf("%s par=%d: no occurrences; workload is vacuous", name, par)
			}
		}
	}

	listed := isomorph.EnumerateSnapshot(snaps["shards=1"], pat, isomorph.Options{})[0]
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "not lent") {
			t.Fatalf("IndexAt on a listed occurrence: panic %q, want one saying it was not lent", msg)
		}
	}()
	listed.IndexAt(0)
}

// allocatedBytes returns the heap bytes f allocates (nothing else runs
// meanwhile: the tests of this package are sequential).
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamingAllocationDoesNotScale checks that lending the occurrence is
// free: a counting consumer over the same pattern allocates what the search
// plan and the per-worker state cost, whether the graph holds N occurrences
// or more than 4N. Both graphs have the same vertex count, which is what
// those fixed costs depend on.
func TestStreamingAllocationDoesNotScale(t *testing.T) {
	const slack = 64 << 10 // bytes; 4N-N occurrences at 1 B each would exceed it
	pat := starPattern()
	sparse := gen.BarabasiAlbert(2000, 2, gen.UniformLabels{K: 2}, 5).Freeze()
	dense := gen.BarabasiAlbert(2000, 3, gen.UniformLabels{K: 2}, 5).Freeze()
	for _, par := range []int{1, 4} {
		count := func(snap *graph.Snapshot) (occurrences int, bytes uint64) {
			var counts []*int
			bytes = allocatedBytes(func() {
				isomorph.EnumerateSnapshotWorkers(snap, pat, isomorph.Options{Parallelism: par}, func(int) func(*isomorph.Occurrence) bool {
					n := new(int)
					counts = append(counts, n)
					return func(*isomorph.Occurrence) bool {
						*n++
						return true
					}
				})
			})
			for _, n := range counts {
				occurrences += *n
			}
			return occurrences, bytes
		}
		n, small := count(sparse)
		m, big := count(dense)
		if n < 20000 || m < 4*n {
			t.Fatalf("workload has %d and %d occurrences; want N >= 20000 and >= 4N", n, m)
		}
		if diff := int64(big) - int64(small); diff > slack || diff < -slack {
			t.Errorf("Parallelism=%d: %d occurrences allocated %d B, %d occurrences %d B: %.1f B per extra occurrence",
				par, n, small, m, big, float64(diff)/float64(m-n))
		}
	}
}
