package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// TestDomainTableRefcounts pins the contract of the maintained state on its
// own, in the layout it really has: one row per node orbit. The pattern is a
// one-label edge, whose two nodes are one orbit, so an instance counts both its
// images into the one row and the row's size is the domain size of either
// node. The two instances {10, 20} and {10, 21} get in both ways a state is
// written — folded from the counted table of a complete pass (rebuild), which
// counted them under the snapshot's dense indexes (IDs 10, 20, 21 sit at 0, 1,
// 2), and
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
			a := &accumulator{table: newDomainTable(snap, c.rowLayout, true)}
			for _, o := range adds {
				a.count++
				for i, r := range a.table.rowOf {
					x, _ := snap.IndexOf(o.ImageAt(i))
					a.table.add(r, x, 1)
				}
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

// TestRunCountOverflow holds a run's bulk count on a counted table to the
// overflow check of a single increment: the data's one label-1 vertex 10 is
// every edge's prefix and its two label-2 neighbours 20 and 21 are one run of
// two leaves. A prefix counter at 2^31-2 that the run would add two to, and a
// leaf counter at 2^31-1, each panic with the diagnostic naming the row and
// the VertexID, and neither counter moves.
func TestRunCountOverflow(t *testing.T) {
	p := pattern.MustNew(graph.NewBuilder("edge").Vertices(1, 5).Vertices(2, 9).Edge(5, 9).MustBuild())
	snap := graph.NewBuilder("data").Vertices(1, 10).Vertices(2, 20, 21).Edge(10, 20).Edge(10, 21).MustBuild().Freeze()
	c := newInstanceCounter(p)
	// wantOverflow runs addRun on a fresh counted table whose (row, x) was
	// added start times, and checks the panic names want and leaves the
	// counter at start.
	wantOverflow := func(o *isomorph.Occurrence, last int, run []int32, row int, x int32, start int32, want string) {
		t.Helper()
		table := newDomainTable(snap, c.rowLayout, true)
		table.add(row, x, start)
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("counter at %d: panic %q, want one containing %q", start, msg, want)
			}
			if got := table.counters(row)[x]; got != start {
				t.Errorf("counter at %d: %d after the panic, want it unmoved", start, got)
			}
		}()
		table.addRun(o, last, run)
	}
	runs := 0
	isomorph.EnumerateSnapshotRuns(snap, p, isomorph.Options{Parallelism: 1}, func(int) isomorph.RunFunc {
		return func(o *isomorph.Occurrence, last int, run []int32) bool {
			runs++
			if len(run) != 2 || p.Nodes()[last] != 9 {
				t.Fatalf("run %v at node %d, want the two leaves 20 and 21 at node 9", run, p.Nodes()[last])
			}
			prefix := 1 - last
			wantOverflow(o, last, run, c.rowOf[prefix], o.IndexAt(prefix), math.MaxInt32-1, "map node 5 to vertex 10;")
			wantOverflow(o, last, run, c.rowOf[last], run[1], math.MaxInt32, "map node 9 to vertex 21;")
			return true
		}
	})
	if runs != 1 {
		t.Fatalf("%d runs, want 1", runs)
	}
}

// streamPatterns returns a two-label edge, a path of three, a one-label
// triangle and a 3-star: one orbit per node, an orbit of two ends, one orbit
// of three, and a centre with an orbit of three leaves.
func streamPatterns() []*pattern.Pattern {
	one := func(b *graph.Builder) *pattern.Pattern { return pattern.MustNew(b.MustBuild()) }
	return []*pattern.Pattern{
		one(graph.NewBuilder("edge").Vertices(1, 0).Vertices(2, 1).Edge(0, 1)),
		one(graph.NewBuilder("path3").Vertices(1, 0, 2).Vertices(2, 1).Path(0, 1, 2)),
		one(graph.NewBuilder("triangle").Vertices(1, 0, 1, 2).Cycle(0, 1, 2)),
		one(graph.NewBuilder("star").Vertices(2, 0).Vertices(1, 1, 2, 3).Edge(0, 1).Edge(0, 2).Edge(0, 3)),
	}
}

// TestPresenceMatchesCounts holds the presence rows every complete pass fills
// to the counters only a session's rebuild asks for: on a graph of ten mask
// words, for every pattern, shard count and parallelism, an uncounted pass
// and a counted pass over the same snapshot find the same instances, the
// uncounted one allocates no counters, and each row's mask in either pass is
// exactly the counted pass's non-zero counters. The rows must hold indexes in
// every 64-bit word of the snapshot's masks, so every word boundary has
// indexes on both sides and a bit set in the wrong word shows.
// NewDomainContext's domains, which the miner confines the next level with,
// are the ones DeltaContext.rebuild returns.
func TestPresenceMatchesCounts(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, gen.UniformLabels{K: 2}, 7)
	seen := isomorph.NewMask(g.NumVertices()) // every index some row holds
	for _, shards := range []int{1, 2, 7} {
		snap := g.FreezeSharded(graph.FreezeOptions{Shards: shards})
		n := int32(snap.NumVertices())
		for _, p := range streamPatterns() {
			c := newInstanceCounter(p)
			for _, par := range []int{1, 4} {
				tag := fmt.Sprintf("%s, %d shards, parallelism %d", p, shards, par)
				bare, _ := c.accumulate(snap, par, nil, false, false)
				counted, _ := c.accumulate(snap, par, nil, true, false)
				if bare.table.counts != nil {
					t.Fatalf("%s: an uncounted pass has counters", tag)
				}
				if bare.count == 0 || bare.count != counted.count {
					t.Fatalf("%s: %d instances uncounted, %d counted", tag, bare.count, counted.count)
				}
				for r := range c.rows {
					counters := counted.table.counters(r)
					for x := range n {
						in := counters[x] != 0
						if bare.table.masks[r].Has(x) != in || counted.table.masks[r].Has(x) != in {
							t.Fatalf("%s: %s, index %d: present %v uncounted, %v counted; counter %d", tag, c.describe(r), x, bare.table.masks[r].Has(x), counted.table.masks[r].Has(x), counters[x])
						}
						if in {
							seen.Add(x)
						}
					}
				}

				_, domains := NewDomainContext(snap, p, par, nil)
				_, rebuilt, err := NewDeltaContextAt(g, snap, p, Options{Parallelism: par}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(domains, rebuilt) {
					t.Fatalf("%s: NewDomainContext's domains differ from rebuild's", tag)
				}
			}
		}
	}
	for w, word := range seen {
		if word == 0 {
			t.Fatalf("no row holds an index of mask word %d: the word boundaries around it are untested", w)
		}
	}
}

// TestColdPassAllocatesNoCounters holds a streamed NewContext to its presence
// masks: the 3-star's pass over ER(2^15) at parallelism 1 allocates, all told,
// less than the 4·orbits·n bytes a counter per (orbit, vertex) would take on
// its own.
func TestColdPassAllocatesNoCounters(t *testing.T) {
	const n = 1 << 15
	snap := gen.ErdosRenyi(n, 6/float64(n-1), gen.UniformLabels{K: 2}, 1).Freeze()
	star := streamPatterns()[3]
	limit := uint64(4 * newInstanceCounter(star).rows * n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ctx, err := NewContext(nil, star, Options{Streaming: true, Snapshot: snap, Parallelism: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.NumInstances() == 0 {
		t.Fatal("no stars: the pass measured nothing")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("streamed star context allocated %d bytes, want under %d (4 bytes per orbit per vertex)", got, limit)
	}
}

// TestDeltaContextAtDomains pins what NewDeltaContextAt hands back and what
// its masks may change. The domains it returns are the rows of the state it
// built, one mask per pattern node over the snapshot's dense indexes; and a
// context built under masks that hold every node's images — the returned
// domains themselves, or those plus unrelated vertices — has exactly the state
// of the unconfined one, refcounts included, and returns the same domains.
func TestDeltaContextAtDomains(t *testing.T) {
	g := gen.BarabasiAlbert(300, 2, gen.UniformLabels{K: 2}, 17)
	patterns := append(streamPatterns(), pattern.MustNew(graph.NewBuilder("absent").Vertices(7, 0, 1).Edge(0, 1).MustBuild()))
	for _, shards := range []int{1, 3} {
		snap := g.FreezeSharded(graph.FreezeOptions{Shards: shards})
		n := snap.NumVertices()
		for _, p := range patterns {
			for _, par := range []int{1, 4} {
				tag := fmt.Sprintf("%s, %d shards, parallelism %d", p, shards, par)
				d, domains, err := NewDeltaContextAt(g, snap, p, Options{Parallelism: par}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if absent := p == patterns[len(patterns)-1]; (d.state.count == 0) != absent {
					t.Fatalf("%s: %d instances", tag, d.state.count)
				}
				for i, dom := range domains {
					row := d.state.entries[d.state.rowOf[i]]
					if dom.Count() != len(row) {
						t.Fatalf("%s: node %d's domain holds %d vertices, its state row %d", tag, p.Nodes()[i], dom.Count(), len(row))
					}
					for x := int32(0); x < int32(n); x++ {
						if _, inRow := row[snap.ID(x)]; inRow != dom.Has(x) {
							t.Fatalf("%s: vertex %d is in node %d's domain: %v, in its state row: %v", tag, snap.ID(x), p.Nodes()[i], dom.Has(x), inRow)
						}
					}
				}

				loose := make([]isomorph.Mask, len(domains))
				for i, dom := range domains {
					loose[i] = slices.Clone(dom)
					for x := int32(0); x < int32(n); x += 3 {
						loose[i].Add(x)
					}
				}
				for name, masks := range map[string][]isomorph.Mask{"exact": domains, "loose": loose} {
					dm, got, err := NewDeltaContextAt(g, snap, p, Options{Parallelism: par}, masks)
					if err != nil {
						t.Fatal(err)
					}
					if dm.state.count != d.state.count || !reflect.DeepEqual(dm.state.entries, d.state.entries) {
						t.Fatalf("%s, %s masks: %d instances, domain sizes %v; unconfined %d, %v", tag, name, dm.state.count, dm.state.sizes(), d.state.count, d.state.sizes())
					}
					if !reflect.DeepEqual(got, domains) {
						t.Fatalf("%s, %s masks: the confined build returned other domains", tag, name)
					}
				}
			}
		}
	}
}
