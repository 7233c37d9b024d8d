package isomorph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// lentRun is one call of a RunFunc, copied out: the prefix's dense indexes
// (the last position's entry unset), the last position and the run.
type lentRun struct {
	prefix []int32
	last   int
	run    []int32
}

// leaves returns the run's leaves as VertexID tuples aligned with the
// pattern's nodes.
func (r lentRun) leaves(snap *graph.Snapshot) [][]graph.VertexID {
	var out [][]graph.VertexID
	for _, c := range r.run {
		ids := make([]graph.VertexID, len(r.prefix))
		for i, x := range r.prefix {
			if i == r.last {
				x = c
			}
			ids[i] = snap.ID(x)
		}
		out = append(out, ids)
	}
	return out
}

// enumCounters reads the two emit counters of the enumeration engine.
func enumCounters() (representatives, occurrences uint64) {
	return obs.Default.CounterValue("repro_enum_representatives_total"), obs.Default.CounterValue("repro_enum_occurrences_total")
}

// collectRuns enumerates p in snap through EnumerateSnapshotRuns and returns
// every worker's runs in delivery order, failing the test on a run that is
// empty, not ascending, or repeats an image of its prefix.
func collectRuns(t *testing.T, where string, snap *graph.Snapshot, p *pattern.Pattern, opts isomorph.Options) [][]lentRun {
	t.Helper()
	var perWorker [][]lentRun
	isomorph.EnumerateSnapshotRuns(snap, p, opts, func(w int) isomorph.RunFunc {
		perWorker = append(perWorker, nil)
		return func(o *isomorph.Occurrence, last int, run []int32) bool {
			prefix := make([]int32, o.Len())
			for i := range prefix {
				if i != last {
					prefix[i] = o.IndexAt(i)
				}
			}
			used := slices.Delete(slices.Clone(prefix), last, last+1)
			if len(run) == 0 || !slices.IsSorted(run) || slices.ContainsFunc(run, func(c int32) bool { return slices.Contains(used, c) }) {
				t.Errorf("%s: run %v under prefix %v at position %d: want a non-empty ascending run of unused indexes", where, run, prefix, last)
			}
			perWorker[w] = append(perWorker[w], lentRun{prefix: prefix, last: last, run: slices.Clone(run)})
			return true
		}
	})
	return perWorker
}

// tupleKeys returns the tuples' keys in the order given.
func tupleKeys(tuples [][]graph.VertexID) []string {
	keys := make([]string, len(tuples))
	for i, ids := range tuples {
		keys[i] = fmt.Sprint(ids)
	}
	return keys
}

// checkRunDelivery holds the runs of p in snap under opts to what the
// per-occurrence entry points give: the leaves, expanded in delivery order,
// are the stream EnumerateSnapshotWorkers lends (in order on one worker, as a
// multiset on several), their copies under every automorphism are the full
// list of EnumerateSnapshot with the same masks, and the two emit counters
// moved by the list's length and that times |Aut(P)|. It returns the number of
// runs.
func checkRunDelivery(t *testing.T, where string, snap *graph.Snapshot, p *pattern.Pattern, opts isomorph.Options) int {
	t.Helper()
	reps0, occs0 := enumCounters()
	perWorker := collectRuns(t, where, snap, p, opts)
	reps1, occs1 := enumCounters()

	var leaves [][]graph.VertexID
	runs := 0
	for _, w := range perWorker {
		for _, r := range w {
			leaves = append(leaves, r.leaves(snap)...)
			runs++
		}
	}
	var perWorkerStream [][][]graph.VertexID
	isomorph.EnumerateSnapshotWorkers(snap, p, opts, func(w int) func(*isomorph.Occurrence) bool {
		perWorkerStream = append(perWorkerStream, nil)
		return func(o *isomorph.Occurrence) bool {
			perWorkerStream[w] = append(perWorkerStream[w], o.Images())
			return true
		}
	})
	streamed := slices.Concat(perWorkerStream...)
	got, want := tupleKeys(leaves), tupleKeys(streamed)
	if opts.Parallelism != 1 {
		slices.Sort(got)
		slices.Sort(want)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: the runs expand to %d leaves, the per-occurrence stream has %d occurrences or another order", where, len(got), len(want))
	}

	list := isomorph.EnumerateSnapshot(snap, p, opts)
	weight := uint64(1)
	full, occs := occurrenceKeys(list), leafOccurrences(t, p, leaves)
	if sym := opts.Symmetry; sym != nil {
		weight = uint64(sym.Order())
		got, full = occurrenceKeys(sym.Expand(occs)), occurrenceKeys(sym.Expand(list))
	} else {
		isomorph.SortOccurrences(occs)
		got = occurrenceKeys(occs)
	}
	if len(list) == 0 {
		t.Fatalf("%s: no occurrences to deliver", where)
	}
	if len(leaves) != len(list) || !slices.Equal(got, full) {
		t.Fatalf("%s: %d leaves in %d runs, EnumerateSnapshot lists %d; the expansions differ: %v", where, len(leaves), runs, len(list), !slices.Equal(got, full))
	}
	if reps1-reps0 != uint64(len(list)) || occs1-occs0 != uint64(len(list))*weight {
		t.Fatalf("%s: counters moved by %d representatives and %d occurrences, want %d and %d", where, reps1-reps0, occs1-occs0, len(list), uint64(len(list))*weight)
	}
	return runs
}

// leafOccurrences builds an occurrence of p from every VertexID tuple.
func leafOccurrences(t *testing.T, p *pattern.Pattern, tuples [][]graph.VertexID) []*isomorph.Occurrence {
	t.Helper()
	out := make([]*isomorph.Occurrence, len(tuples))
	for j, ids := range tuples {
		mapping := make(map[pattern.NodeID]graph.VertexID, len(ids))
		for i, n := range p.Nodes() {
			mapping[n] = ids[i]
		}
		o, err := isomorph.NewOccurrence(p, mapping)
		if err != nil {
			t.Fatal(err)
		}
		out[j] = o
	}
	return out
}

// hubGraph is a label-1 hub 100 with six label-2 leaves 1..6, and a second
// label-1 vertex 200 adjacent to two of them, too few to centre a star: a
// 3-leaf star centred at the hub meets every pair of taken leaves in its last
// depth's run — at the run's start, at its end, adjacent and apart.
func hubGraph() *graph.Graph {
	return graph.NewBuilder("hub").
		Vertex(100, 1).Vertex(200, 1).
		Vertices(2, 1, 2, 3, 4, 5, 6).
		Star(100, 1, 2, 3, 4, 5, 6).
		Edge(200, 5).Edge(200, 6).
		MustBuild()
}

// TestRunDeliveryEdgeCases holds the search's last depth, delivered as runs,
// to the per-occurrence entry points on the cases the run path special-cases,
// at parallelism {1, 4} × shards {1, 7}: a single-anchor last depth cut at
// taken entries (the hub's 3-leaf stars, full search: the taken pair at the
// run's start, at its end, adjacent and apart, one run per stretch between
// them); galloping last depths with and without a residual anchor (a
// triangle, a 4-clique), with and without masks; one- and two-node patterns,
// whose last depth the root binds; and under a symmetry, where no cut is
// needed.
func TestRunDeliveryEdgeCases(t *testing.T) {
	star := starPattern()
	one := func(b *graph.Builder) *pattern.Pattern { return pattern.MustNew(b.MustBuild()) }
	vertex := one(graph.NewBuilder("vertex").Vertex(0, 1))
	edge := one(graph.NewBuilder("edge").Vertex(0, 1).Vertex(1, 2).Edge(0, 1))
	triangle := trianglePattern(1)
	clique := one(graph.NewBuilder("clique4").Vertices(1, 0, 1, 2, 3).Clique(0, 1, 2, 3))
	dense := gen.ErdosRenyi(48, 0.35, gen.UniformLabels{K: 1}, 3)
	ba := gen.BarabasiAlbert(200, 3, gen.UniformLabels{K: 2}, 5)

	// The hub's run of six leaves minus a taken pair {x, y}: a stretch before,
	// between and after them, each run only when non-empty.
	wantStarRuns := 0
	for x := 1; x <= 6; x++ {
		for y := 1; y <= 6; y++ {
			if x == y {
				continue
			}
			lo, hi := min(x, y), max(x, y)
			for _, n := range []int{lo - 1, hi - lo - 1, 6 - hi} {
				if n > 0 {
					wantStarRuns++
				}
			}
		}
	}

	for _, shards := range []int{1, 7} {
		hub, denseSnap, baSnap := sharded(hubGraph(), shards), sharded(dense, shards), sharded(ba, shards)
		for _, par := range []int{1, 4} {
			tag := fmt.Sprintf("shards %d, parallelism %d", shards, par)
			full, symOf := isomorph.Options{Parallelism: par}, func(p *pattern.Pattern) isomorph.Options {
				return isomorph.Options{Parallelism: par, Symmetry: isomorph.NewSymmetry(p)}
			}
			if runs := checkRunDelivery(t, "hub star, full search, "+tag, hub, star, full); runs != wantStarRuns {
				t.Fatalf("hub star, full search, %s: %d runs, want %d — one per stretch between taken leaves", tag, runs, wantStarRuns)
			}
			if runs := checkRunDelivery(t, "hub star, symmetric, "+tag, hub, star, symOf(star)); runs != 10 {
				t.Fatalf("hub star, symmetric, %s: %d runs, want one per pair of leaves below the sixth: 10", tag, runs)
			}
			for _, p := range []*pattern.Pattern{triangle, clique} {
				for _, opts := range []isomorph.Options{full, symOf(p)} {
					where := fmt.Sprintf("%s on ER(48), symmetry %v, %s", p, opts.Symmetry != nil, tag)
					checkRunDelivery(t, where, denseSnap, p, opts)
					opts.Masks = looseDomains(denseSnap, p)
					checkRunDelivery(t, where+", masked", denseSnap, p, opts)
				}
			}
			for _, p := range []*pattern.Pattern{vertex, edge, star} {
				checkRunDelivery(t, fmt.Sprintf("%s on BA(200), full, %s", p, tag), baSnap, p, full)
				checkRunDelivery(t, fmt.Sprintf("%s on BA(200), symmetric, %s", p, tag), baSnap, p, symOf(p))
			}
		}
	}
}

// looseDomains returns, per node of p, the images the node takes in snap plus
// every third index: masks a search must deliver the unmasked list under.
func looseDomains(snap *graph.Snapshot, p *pattern.Pattern) []isomorph.Mask {
	masks := make([]isomorph.Mask, len(p.Nodes()))
	for i := range masks {
		masks[i] = isomorph.NewMask(snap.NumVertices())
		for x := int32(0); x < int32(snap.NumVertices()); x += 3 {
			masks[i].Add(x)
		}
	}
	for _, o := range isomorph.EnumerateSnapshot(snap, p, isomorph.Options{}) {
		for i := range masks {
			x, _ := snap.IndexOf(o.ImageAt(i))
			masks[i].Add(x)
		}
	}
	return masks
}

// TestPinnedRunDelivery runs pinned searches — an edge, whose last depth the
// pinned arc binds, a triangle and the 3-leaf star, whose last depths are
// runs — at every arc over every data edge without a symmetry: each run must
// deliver the full list, every occurrence once per pinned edge it maps the arc
// onto, and move the counters by what it delivered.
func TestPinnedRunDelivery(t *testing.T) {
	one := func(b *graph.Builder) *pattern.Pattern { return pattern.MustNew(b.MustBuild()) }
	patterns := []*pattern.Pattern{
		one(graph.NewBuilder("edge").Vertex(0, 1).Vertex(1, 2).Edge(0, 1)),
		trianglePattern(1),
		starPattern(),
	}
	g := graph.NewBuilder("mixed").
		Vertex(100, 1).Vertex(200, 1).Vertices(2, 1, 2, 3, 4, 5, 6).Vertices(1, 7, 8).
		Star(100, 1, 2, 3, 4, 5, 6).Edge(200, 5).Edge(200, 6).
		Cycle(100, 7, 8).Edge(200, 7).Edge(200, 8).
		MustBuild()
	for _, shards := range []int{1, 7} {
		snap := sharded(g, shards)
		var all []uint64
		for _, e := range g.Edges() {
			u, _ := snap.IndexOf(e.U)
			v, _ := snap.IndexOf(e.V)
			all = append(all, isomorph.EdgeKey(u, v))
		}
		slices.Sort(all)
		for _, p := range patterns {
			want := occurrenceKeys(isomorph.EnumerateSnapshot(snap, p, isomorph.Options{}))
			if len(want) == 0 {
				t.Fatalf("%s: no occurrences to deliver", p)
			}
			for _, arc := range patternArcs(p) {
				where := fmt.Sprintf("%s pinned at arc %v, shards %d", p, arc, shards)
				search := isomorph.NewPinnedSearch(snap, p, nil, arc[0], arc[1])
				reps0, _ := enumCounters()
				var got []*isomorph.Occurrence
				search.Run(snap, all, func(o *isomorph.Occurrence) bool {
					got = append(got, leafOccurrences(t, p, [][]graph.VertexID{o.Images()})...)
					return true
				})
				reps1, _ := enumCounters()
				isomorph.SortOccurrences(got)
				if keys := occurrenceKeys(got); !slices.Equal(keys, want) {
					t.Fatalf("%s: delivered %d occurrences, the full list has %d", where, len(keys), len(want))
				}
				if reps1-reps0 != uint64(len(want)) {
					t.Fatalf("%s: %d representatives counted, %d delivered", where, reps1-reps0, len(want))
				}
			}
		}
	}
}

// TestStopMidRun stops the search inside a run: a per-occurrence consumer
// refusing its second leaf of the hub's first 3-leaf-star run, directly and
// through a pinned search, and a run consumer refusing its first run. Each
// consumer must see nothing after it refused.
func TestStopMidRun(t *testing.T) {
	star := starPattern()
	for _, shards := range []int{1, 7} {
		snap := sharded(hubGraph(), shards)
		for _, par := range []int{1, 4} {
			where := fmt.Sprintf("shards %d, parallelism %d", shards, par)
			opts := isomorph.Options{Parallelism: par}
			var calls []*int
			isomorph.EnumerateSnapshotWorkers(snap, star, opts, func(int) func(*isomorph.Occurrence) bool {
				n := new(int)
				calls = append(calls, n)
				return func(*isomorph.Occurrence) bool {
					*n++
					if *n > 2 {
						t.Errorf("%s: a per-occurrence consumer called again after refusing", where)
					}
					return *n < 2
				}
			})
			if *calls[0] != 2 {
				t.Fatalf("%s: the refusing consumer saw %d occurrences, want 2", where, *calls[0])
			}
			calls = nil
			isomorph.EnumerateSnapshotRuns(snap, star, opts, func(int) isomorph.RunFunc {
				n := new(int)
				calls = append(calls, n)
				return func(_ *isomorph.Occurrence, _ int, run []int32) bool {
					*n++
					if *n > 1 {
						t.Errorf("%s: a run consumer called again after refusing", where)
					}
					if len(run) < 2 {
						t.Errorf("%s: first run of %d leaves, want a longer one to stop in", where, len(run))
					}
					return false
				}
			})
			if *calls[0] != 1 {
				t.Fatalf("%s: the refusing run consumer was called %d times, want 1", where, *calls[0])
			}
		}
		search := isomorph.NewPinnedSearch(snap, star, nil, 0, 1) // the centre, a leaf
		hub, _ := snap.IndexOf(100)
		leaf, _ := snap.IndexOf(1)
		n := 0
		search.Run(snap, []uint64{isomorph.EdgeKey(hub, leaf)}, func(*isomorph.Occurrence) bool {
			n++
			return n < 2
		})
		if n != 2 {
			t.Fatalf("shards %d: the pinned search's consumer saw %d occurrences after refusing its second, want 2", shards, n)
		}
	}
}
