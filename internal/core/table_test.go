package core

import (
	"fmt"
	"math/rand/v2"
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

// TestDomainStatePresence pins the contract of the maintained state on its
// own, in the layout it really has: one row per node orbit. The pattern is a
// one-label edge, whose two nodes are one orbit, so an instance sets both its
// images in the one row and the row's size is the domain size of either
// node. The two instances {10, 20} and {10, 21} get in both ways a state is
// written — copied from the table of a complete pass (rebuild), and added one
// lent representative at a time (a plus pass) — and from either start:
// subtracting an instance takes it out of the count but leaves every row as
// it is, and hands back each image as a suspect (row, dense index); a
// suspect the re-check clears leaves its row; and subtracting an image the
// row does not hold panics, naming the orbit by its first node and the data
// vertex, as does subtracting from a count of zero. A state copied from a
// table shares none of its words.
func TestDomainStatePresence(t *testing.T) {
	p := pattern.MustNew(graph.NewBuilder("edge").Vertices(1, 5, 9).Edge(5, 9).MustBuild())
	snap := graph.NewBuilder("data").Vertices(1, 10, 20, 21).Edge(10, 20).Edge(10, 21).MustBuild().Freeze()
	c := newInstanceCounter(p)
	if c.rows != 1 || c.occurrences(1) != 2 {
		t.Fatalf("one-label edge: %d rows, %d occurrences per instance; want one orbit and two automorphisms", c.rows, c.occurrences(1))
	}
	// lent runs f on the occurrence the search lends for the mapping of node
	// 5 to u and node 9 to v: only a lent occurrence has dense indexes.
	lent := func(u, v graph.VertexID, f func(*isomorph.Occurrence)) {
		t.Helper()
		met := false
		isomorph.EnumerateSnapshotWorkers(snap, p, isomorph.Options{Parallelism: 1}, func(int) func(*isomorph.Occurrence) bool {
			return func(o *isomorph.Occurrence) bool {
				if o.ImageAt(0) == u && o.ImageAt(1) == v {
					met = true
					f(o)
				}
				return true
			}
		})
		if !met {
			t.Fatalf("the search lends no occurrence %d→%d", u, v)
		}
	}
	index := func(v graph.VertexID) int32 { x, _ := snap.IndexOf(v); return x }
	// The same row whichever occurrence represents {10, 21}.
	adds := [][2]graph.VertexID{{10, 20}, {21, 10}}

	for name, build := range map[string]func() *domainState{
		"copied from a pass table": func() *domainState {
			a := &accumulator{table: newDomainTable(snap.NumVertices(), c.rowLayout)}
			for _, e := range adds {
				a.count++
				for i, r := range c.rowOf {
					a.table.masks[r].Add(index(e[i]))
				}
			}
			s := newDomainState(a)
			s.clear(0, index(20))
			if !a.table.masks[0].Has(index(20)) {
				t.Fatal("clearing a bit of the state cleared the pass table's: the state aliases the table")
			}
			s.set(0, index(20))
			return s
		},
		"added by representative": func() *domainState {
			s := newDomainState(&accumulator{table: newDomainTable(snap.NumVertices(), c.rowLayout)})
			for _, e := range adds {
				lent(e[0], e[1], s.add)
			}
			return s
		},
	} {
		t.Run(name, func(t *testing.T) {
			state := build()
			if got := state.sizes(); !reflect.DeepEqual(got, []int{3, 3}) || state.count != 2 {
				t.Fatalf("after two adds: sizes %v count %d, want [3 3] and 2", got, state.count)
			}
			var suspects []uint64
			lent(20, 10, func(o *isomorph.Occurrence) { suspects = state.subtract(o, suspects) })
			if got := state.sizes(); !reflect.DeepEqual(got, []int{3, 3}) || state.count != 1 {
				t.Fatalf("after subtracting one: sizes %v count %d, want [3 3] and 1: presence is only cleared by a re-check", got, state.count)
			}
			if want := []uint64{suspectKey(0, index(20)), suspectKey(0, index(10))}; !slices.Equal(suspects, want) {
				t.Fatalf("subtracting {10, 20} suspected %v, want %v", suspects, want)
			}
			// Vertex 10 is still in {10, 21}; vertex 20 is in no instance.
			state.clear(0, index(20))
			if got := state.sizes(); !reflect.DeepEqual(got, []int{2, 2}) || state.masks[0].Has(index(20)) {
				t.Fatalf("after clearing vertex 20: sizes %v, want [2 2] without index %d", got, index(20))
			}

			wantPanic := func(want string, f func()) {
				t.Helper()
				defer func() {
					t.Helper()
					if msg, _ := recover().(string); !strings.Contains(msg, want) {
						t.Fatalf("panic %q, want one containing %q", msg, want)
					}
				}()
				f()
			}
			wantPanic("maps the orbit of node 5 to vertex 20,", func() {
				lent(10, 20, func(o *isomorph.Occurrence) { state.subtract(o, nil) })
			})
			state.count = 0
			wantPanic("instance count went negative", func() {
				lent(10, 21, func(o *isomorph.Occurrence) { state.subtract(o, nil) })
			})
		})
	}
}

// TestRemapKeepsVertexSets holds domainState.remap to what it stands for:
// across random batches of vertex inserts and removals (each also adding a
// few edges) over a graph of four mask words plus a few bits, every row holds
// the same VertexIDs before and after, less the vertices the batch removed,
// at the new snapshot's indexes, with its size; and so does the list of
// suspects. The rows start random, full and empty. Some batches remove the
// first and the last index of the old side, others insert IDs below the first
// and above the last; every batch inserts a vertex and removes it again,
// which must change no index, and removes one and inserts it back, which must
// keep its bit. A batch of edges alone maps no index, and once a context has
// a spare as large as its rows a remap allocates nothing.
func TestRemapKeepsVertexSets(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	g := graph.New("shift")
	for v := 0; v < 64*4+7; v++ {
		g.MustAddVertex(graph.VertexID(3*v+3), 1)
	}
	ids := g.SortedVertices()
	for i := 1; i < len(ids); i++ {
		g.MustAddEdge(ids[i-1], ids[i])
	}
	feed := g.Subscribe()
	defer feed.Close()
	old := g.Freeze()
	s := newDomainState(&accumulator{table: newDomainTable(old.NumVertices(), rowLayout{rowOf: []int{0, 1, 2}, rows: 3})})
	for x := int32(0); x < int32(old.NumVertices()); x++ {
		if rng.IntN(3) == 0 {
			s.set(0, x)
		}
		s.set(1, x)
	}
	for batch := 0; batch < 60; batch++ {
		ids := g.SortedVertices()
		first, last := ids[0], ids[len(ids)-1]
		for k := rng.IntN(4); k > 0; k-- {
			if v := ids[rng.IntN(len(ids))]; g.HasVertex(v) {
				g.MustRemoveVertex(v)
			}
		}
		for k := rng.IntN(4); k > 0; k-- {
			if v := graph.VertexID(rng.IntN(int(last) + 8)); !g.HasVertex(v) {
				g.MustAddVertex(v, 1)
			}
		}
		switch batch % 4 {
		case 0:
			if g.HasVertex(first) {
				g.MustRemoveVertex(first)
			}
			if g.HasVertex(last) {
				g.MustRemoveVertex(last)
			}
		case 1:
			if first > 0 && !g.HasVertex(first-1) {
				g.MustAddVertex(first-1, 1)
			}
			g.MustAddVertex(last+1, 1)
		default:
			g.MustAddVertex(last+3, 1)
		}
		// Inserted and removed again: in neither snapshot.
		if v := last + 2; !g.HasVertex(v) {
			g.MustAddVertex(v, 1)
			g.MustRemoveVertex(v)
		}
		// Removed and inserted back: in both, and kept.
		back := g.SortedVertices()[rng.IntN(g.NumVertices())]
		g.MustRemoveVertex(back)
		g.MustAddVertex(back, 2)
		vs := g.SortedVertices()
		for k := 0; k < 3; k++ {
			if u, w := vs[rng.IntN(len(vs))], vs[rng.IntN(len(vs))]; u != w && !g.HasEdge(u, w) {
				g.MustAddEdge(u, w)
			}
		}
		next := g.Freeze()
		b := NewBatch(old, next, feed.Drain(), 0)
		if b.to == nil {
			t.Fatalf("batch %d changed the vertex set but maps no index", batch)
		}
		// survivors keeps the VertexIDs of ids that next has.
		survivors := func(ids []graph.VertexID) []graph.VertexID {
			return slices.DeleteFunc(ids, func(v graph.VertexID) bool { _, ok := next.IndexOf(v); return !ok })
		}
		want := make([][]graph.VertexID, s.rows)
		for r, m := range s.masks {
			want[r] = survivors(MaskIDs(old, m))
		}
		var suspects []uint64
		var wantSuspects []graph.VertexID
		for _, v := range []graph.VertexID{old.ID(0), back, old.ID(int32(old.NumVertices() - 1))} {
			suspects = append(suspects, suspectKey(1, mustIndex(t, old, v)))
			wantSuspects = append(wantSuspects, v)
		}
		suspects = s.remap(b.to, next.NumVertices(), suspects)
		for r, m := range s.masks {
			if got := MaskIDs(next, m); !slices.Equal(got, want[r]) || s.size[r] != len(got) {
				t.Fatalf("batch %d, row %d: remapped to %v (size %d), want %v", batch, r, got, s.size[r], want[r])
			}
		}
		var got []graph.VertexID
		for _, key := range suspects {
			got = append(got, next.ID(int32(uint32(key))))
		}
		if want := survivors(wantSuspects); !slices.Equal(got, want) {
			t.Fatalf("batch %d: suspects remapped to %v, want %v", batch, got, want)
		}
		old = next
	}
	// A batch of edges alone maps nothing.
	vs := g.SortedVertices()
	g.MustAddEdge(vs[0], vs[len(vs)-1])
	if b := NewBatch(old, g.Freeze(), feed.Drain(), 0); b.to != nil {
		t.Fatalf("an edge batch maps %d indexes", len(b.to))
	}
	same := make([]int32, old.NumVertices())
	for x := range same {
		same[x] = int32(x)
	}
	if allocs := testing.AllocsPerRun(10, func() { s.remap(same, old.NumVertices(), nil) }); allocs != 0 {
		t.Fatalf("a remap into a spare as large as the rows allocated %.0f times", allocs)
	}
}

// mustIndex returns v's dense index in snap.
func mustIndex(t *testing.T, snap *graph.Snapshot, v graph.VertexID) int32 {
	t.Helper()
	x, ok := snap.IndexOf(v)
	if !ok {
		t.Fatalf("vertex %d is not in the snapshot", v)
	}
	return x
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
// to counting: on a graph of ten mask words, for every pattern, shard count
// and parallelism, each row holds exactly the indexes that some occurrence in
// the full search's list (no symmetry, no orbit rows) maps a node of the
// row's orbit to — a non-zero count of images — and the pass finds the list's
// instances. The rows must hold indexes in every 64-bit word of the
// snapshot's masks, so every word boundary has indexes on both sides and a
// bit set in the wrong word shows. NewDomainContext's domains, which the
// miner confines the next level with, are the ones DeltaContext.rebuild
// returns, and those share no word with the state the context keeps.
func TestPresenceMatchesCounts(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, gen.UniformLabels{K: 2}, 7)
	seen := isomorph.NewMask(g.NumVertices()) // every index some row holds
	for _, shards := range []int{1, 2, 7} {
		snap := g.FreezeSharded(graph.FreezeOptions{Shards: shards})
		n := int32(snap.NumVertices())
		for _, p := range streamPatterns() {
			c := newInstanceCounter(p)
			counts := make([][]int, c.rows)
			for r := range counts {
				counts[r] = make([]int, n)
			}
			occs := isomorph.EnumerateSnapshot(snap, p, isomorph.Options{Parallelism: 1})
			for _, o := range occs {
				for i, r := range c.rowOf {
					x, _ := snap.IndexOf(o.ImageAt(i))
					counts[r][x]++
				}
			}
			for _, par := range []int{1, 4} {
				tag := fmt.Sprintf("%s, %d shards, parallelism %d", p, shards, par)
				all, _ := c.accumulate(snap, par, nil, false)
				if all.count == 0 || c.occurrences(all.count) != len(occs) {
					t.Fatalf("%s: %d instances of %d occurrences each, the full search lists %d occurrences", tag, all.count, c.occurrences(1), len(occs))
				}
				for r := range c.rows {
					for x := range n {
						in := counts[r][x] != 0
						if all.table.masks[r].Has(x) != in {
							t.Fatalf("%s: %s, index %d: present %v; %d images counted", tag, c.describe(r), x, all.table.masks[r].Has(x), counts[r][x])
						}
						if in {
							seen.Add(x)
						}
					}
				}

				_, domains := NewDomainContext(snap, p, par, nil)
				d, rebuilt, err := NewDeltaContextAt(g, snap, p, Options{Parallelism: par}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(domains, rebuilt) {
					t.Fatalf("%s: NewDomainContext's domains differ from rebuild's", tag)
				}
				for i, dom := range rebuilt {
					if &dom[0] == &d.state.masks[c.rowOf[i]][0] {
						t.Fatalf("%s: rebuild handed out node %d's state row as its domain", tag, p.Nodes()[i])
					}
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
// of the unconfined one, row sizes included, and returns the same domains.
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
					row := d.state.masks[d.state.rowOf[i]]
					if dom.Count() != d.state.size[d.state.rowOf[i]] || !slices.Equal(dom, row) {
						t.Fatalf("%s: node %d's domain holds %d vertices, its state row %d of size %d", tag, p.Nodes()[i], dom.Count(), row.Count(), d.state.size[d.state.rowOf[i]])
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
					if dm.state.count != d.state.count || !slices.Equal(dm.state.words, d.state.words) || !slices.Equal(dm.state.size, d.state.size) {
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
