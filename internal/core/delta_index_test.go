package core_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// spreadIDs returns a copy of g with vertex v renamed stride*v, so that there
// is room for new vertices between any two.
func spreadIDs(g *graph.Graph, stride graph.VertexID) *graph.Graph {
	out := graph.New(g.Name() + "/spread")
	for _, v := range g.SortedVertices() {
		out.MustAddVertex(stride*v, g.MustLabelOf(v))
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(stride*e.U, stride*e.V)
	}
	return out
}

// TestDeltaContextAcrossShiftedIndexSpaces covers the batches under which the
// two sides of a refresh disagree about every dense index of the mutated
// region: a vertex inserted between existing IDs (every vertex above it moves
// up one index in the new snapshot), a vertex removed below the region (every
// vertex above it moves down), and both in one batch. The passes' roots and
// dirty sets are those indexes, and the maintained rows are remapped from the
// old side's onto the new side's; the aggregates and every domain's vertices
// must equal a from-scratch context's after every refresh, and every refresh
// here is small enough to be applied as a delta.
func TestDeltaContextAcrossShiftedIndexSpaces(t *testing.T) {
	p := trianglePattern()
	for _, shards := range []int{1, 2, 7} {
		for _, par := range []int{1, 4} {
			tag := fmt.Sprintf("shards=%d par=%d", shards, par)
			g := spreadIDs(gen.RandomGeometric(300, 0.08, gen.UniformLabels{K: 1}, 23), 10)
			d, err := core.NewDeltaContext(g, p, core.Options{Shards: shards, Parallelism: par})
			if err != nil {
				t.Fatalf("%s: NewDeltaContext: %v", tag, err)
			}
			defer d.Close()
			if d.NumOccurrences() == 0 {
				t.Fatalf("%s: workload has no triangles; test needs a non-trivial baseline", tag)
			}
			refresh := func(step string) {
				t.Helper()
				if err := d.Refresh(); err != nil {
					t.Fatalf("%s %s: Refresh: %v", tag, step, err)
				}
				requireDeltaMatchesScratch(t, d, g, p, tag+" "+step)
			}
			// edgeAbove returns an edge whose lower endpoint is the first
			// vertex at or after position from that still has a neighbor.
			ids := g.SortedVertices()
			edgeAbove := func(from int) (graph.VertexID, graph.VertexID) {
				for _, u := range ids[from:] {
					if g.HasVertex(u) && len(g.Neighbors(u)) > 0 {
						return u, g.Neighbors(u)[0]
					}
				}
				t.Fatalf("%s: no edge above position %d", tag, from)
				return 0, 0
			}

			// Insert between: a new vertex low in the ID order closes a
			// triangle over an edge high in it.
			u, w := edgeAbove(200)
			g.MustAddVertex(ids[20]+1, 1)
			g.MustAddEdge(ids[20]+1, u)
			g.MustAddEdge(ids[20]+1, w)
			refresh("insert between")

			// Remove below: a low vertex goes (its edges with it) while the
			// triangle just built loses an edge.
			g.MustRemoveVertex(ids[5])
			g.MustRemoveEdge(u, w)
			refresh("remove below")

			// Both in one batch, around another edge.
			u, w = edgeAbove(250)
			g.MustAddVertex(ids[30]+1, 1)
			g.MustAddEdge(ids[30]+1, u)
			g.MustAddEdge(ids[30]+1, w)
			g.MustRemoveVertex(ids[8])
			refresh("insert and remove")

			if st := d.Stats(); st.DeltaRefreshes != 3 || st.FullRebuilds != 0 {
				t.Fatalf("%s: every batch should take the delta path, stats %+v", tag, st)
			}
		}
	}
}

// TestRestrictedPassCostsItsBall checks what a delta refresh pays for, on one
// kind of batch — a single added edge, triangles maintained — in a
// preferential-attachment graph: the edge runs from the newest vertex that
// lies on a triangle to the newest one two hops from it and not adjacent, so
// it closes a triangle and the passes have something to count. The new
// snapshot is frozen and the batch's mutations drained before measuring, so
// the two measured steps are exactly core.NewBatch (dirty indexes and the
// breadth-first search that sizes the balls) and DeltaContext.Apply (the two
// passes).
//
// The whole refresh pays for its mutation ball and not for the graph: between
// two of the newest, lowest-degree vertices the edge allocates on 2^16 vertices
// what it allocates on 2^12, up to a fixed slack. Per-worker search state and
// dirty sets are sized by the pattern or the batch; one n-sized slice per
// worker per pass (64 KiB at a byte per vertex, two workers, two passes) would
// be 16 times the slack.
//
// Apply pays for the instances it counts and not for the ball either. The
// third graph is the second with a hub added before the context is built — a
// vertex of a label the pattern does not have, adjacent to every 16th vertex —
// and the batch has a second edge, from the hub to the first edge's newest
// end. The balls are the hub's 4 096 neighbours on either side; the triangles
// through a mutated edge are the same few as before, because none passes
// through the hub. So applying that
// batch may allocate what the small-ball batch does plus a fixed slack sized
// from the counted instances — their bits exist already, but allow each one
// a generous share of a growing buffer, and the searches a scratch buffer
// regrown for the one more neighbour — where pass tables laid out over the balls (4 bytes a vertex, a
// row per node orbit) come to 32 KiB.
func TestRestrictedPassCostsItsBall(t *testing.T) {
	const slack = 16 << 10
	const applySlack = 1 << 10
	const perCounted = 64 // bytes: a generous share of a buffer's growth
	const hubLabel, hubStride = 2, 16
	p := trianglePattern()
	type cost struct {
		batch, apply uint64
		stats        core.DeltaStats
	}
	refreshBytes := func(n int, atHub bool) cost {
		g := gen.BarabasiAlbert(n, 2, gen.UniformLabels{K: 1}, 9)
		ids := g.SortedVertices()
		onTriangle := func(v graph.VertexID) bool {
			nbs := g.Neighbors(v)
			for i, a := range nbs {
				for _, b := range nbs[i+1:] {
					if g.HasEdge(a, b) {
						return true
					}
				}
			}
			return false
		}
		newest := func(ok func(graph.VertexID) bool) graph.VertexID {
			for i := len(ids) - 1; i >= 0; i-- {
				if ok(ids[i]) {
					return ids[i]
				}
			}
			t.Fatalf("n=%d: no vertex fits the batch", n)
			return 0
		}
		v := newest(onTriangle)
		u := newest(func(w graph.VertexID) bool {
			if w == v || g.HasEdge(w, v) {
				return false
			}
			for _, x := range g.Neighbors(w) {
				if g.HasEdge(x, v) {
					return true
				}
			}
			return false
		})
		hub := ids[len(ids)-1] + 1
		if atHub {
			g.MustAddVertex(hub, hubLabel)
			for i := 0; i < len(ids); i += hubStride {
				g.MustAddEdge(hub, ids[i])
			}
		}
		freeze := graph.FreezeOptions{Shards: 16}
		old := g.FreezeSharded(freeze)
		d, _, err := core.NewDeltaContextAt(g, old, p, core.Options{Parallelism: 2}, nil)
		if err != nil {
			t.Fatalf("n=%d: NewDeltaContextAt: %v", n, err)
		}
		feed := g.Subscribe()
		defer feed.Close()
		g.MustAddEdge(u, v)
		if atHub {
			g.MustAddEdge(hub, max(u, v))
		}
		next := g.FreezeSharded(freeze)
		muts := feed.Drain()

		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		batch := core.NewBatch(old, next, muts, d.Radius())
		runtime.ReadMemStats(&m1)
		_, err = d.Apply(batch)
		runtime.ReadMemStats(&m2)
		if err != nil {
			t.Fatalf("n=%d: Apply: %v", n, err)
		}
		if st := d.Stats(); st.DeltaRefreshes != 1 || st.PassCounted == 0 {
			t.Fatalf("n=%d: the refresh should take the delta path and count the triangles the edge %d–%d closes, stats %+v", n, u, v, st)
		}
		return cost{batch: m1.TotalAlloc - m0.TotalAlloc, apply: m2.TotalAlloc - m1.TotalAlloc, stats: d.Stats()}
	}
	small, big := refreshBytes(1<<12, false), refreshBytes(1<<16, false)
	if big.batch+big.apply > small.batch+small.apply+slack {
		t.Errorf("one-edge refresh allocated %d+%d B on 2^12 vertices (balls of %d) and %d+%d B on 2^16 (balls of %d): a refresh must not pay for the graph",
			small.batch, small.apply, small.stats.LastBallVertices, big.batch, big.apply, big.stats.LastBallVertices)
	}
	hub := refreshBytes(1<<16, true)
	if hub.stats.LastBallVertices < 10*big.stats.LastBallVertices {
		t.Fatalf("the hub's balls hold %d vertices against %d away from it; the case needs ten times as many", hub.stats.LastBallVertices, big.stats.LastBallVertices)
	}
	if allowed := big.apply + applySlack + perCounted*uint64(hub.stats.PassCounted); hub.apply > allowed {
		t.Errorf("applying one edge allocated %d B with balls of %d vertices and %d B at the hub with balls of %d, where the passes counted %d instances: more than the %d B those account for, so something is paying for the ball",
			big.apply, big.stats.LastBallVertices, hub.apply, hub.stats.LastBallVertices, hub.stats.PassCounted, allowed)
	}
}

// TestApplyAllocatesNoPlans counts what DeltaContext.Apply allocates on a
// one-edge batch and its undo — the edge closes a triangle through the newest
// vertex of a preferential-attachment graph, so every pattern's passes have
// instances to count — with the batches built beforehand, so nothing but
// Apply is measured. A context compiles its pinned searches when it is built
// and a pass only runs them, so what Apply allocates is a fixed handful, the
// same for a pattern of one node orbit (the triangle) as for one of two (the
// path of three nodes: its ends and its centre). Planning each orbit's search
// afresh on every pass costs dozens of allocations per orbit per pass.
func TestApplyAllocatesNoPlans(t *testing.T) {
	const bound = 8 // allocations per Apply
	g := gen.BarabasiAlbert(1<<10, 2, gen.UniformLabels{K: 1}, 9)
	ids := g.SortedVertices()
	v := ids[len(ids)-1]
	w := g.Neighbors(v)[0]
	u := v
	for _, x := range g.Neighbors(w) {
		if x != v && !g.HasEdge(x, v) {
			u = x
			break
		}
	}
	if u == v {
		t.Fatalf("no vertex two hops from %d to close a triangle with", v)
	}
	freeze := graph.FreezeOptions{Shards: 4}
	old := g.FreezeSharded(freeze)
	patterns := map[string]*pattern.Pattern{
		"triangle": trianglePattern(),
		"path3":    pattern.MustNew(graph.NewBuilder("path3").Vertices(1, 0, 1, 2).Edge(0, 1).Edge(1, 2).MustBuild()),
	}
	contexts := map[string]*core.DeltaContext{}
	for name, p := range patterns {
		d, _, err := core.NewDeltaContextAt(g, old, p, core.Options{Parallelism: 1}, nil)
		if err != nil {
			t.Fatalf("%s: NewDeltaContextAt: %v", name, err)
		}
		contexts[name] = d
	}
	feed := g.Subscribe()
	defer feed.Close()
	g.MustAddEdge(u, v)
	next := g.FreezeSharded(freeze)
	added := feed.Drain()
	g.MustRemoveEdge(u, v)
	removed := feed.Drain()

	allocs := map[string]float64{}
	for name, d := range contexts {
		add := core.NewBatch(old, next, added, d.Radius())
		undo := core.NewBatch(next, old, removed, d.Radius())
		var err error
		allocs[name] = testing.AllocsPerRun(10, func() {
			_, errAdd := d.Apply(add)
			_, errUndo := d.Apply(undo)
			err = errors.Join(err, errAdd, errUndo)
		}) / 2
		if err != nil {
			t.Fatalf("%s: Apply: %v", name, err)
		}
		if st := d.Stats(); st.FullRebuilds != 0 || st.PassCounted == 0 {
			t.Fatalf("%s: every batch should take the delta path and count instances through %d and %d, stats %+v", name, u, v, st)
		}
	}
	t.Logf("allocations per Apply: %v", allocs)
	for name, n := range allocs {
		if n > bound || n > allocs["triangle"] {
			t.Errorf("Apply allocated %v times per one-edge batch for the %s (%d orbits) and %v for the triangle (1 orbit); want at most %d and no more than the triangle",
				n, name, isomorph.NewSymmetry(patterns[name]).NumOrbits(), allocs["triangle"], bound)
		}
	}
}

// TestDeltaPassCountsWhatItEmits pins the work counters of a delta pass on
// the case that separates rooting the search at the mutated edges from
// rooting it at their ends: a one-label 4-leaf star (24 automorphisms) and an
// edge added at a hub. The batch's one edge is the only root, and every star
// that uses it uses no other mutated edge, so the passes emit, count and apply
// exactly the C(14, 3) stars the edge makes — not the C(15, 4) stars centred
// on the hub, which a search rooted at the edge's ends meets on the plus side;
// and the process-wide counters move by exactly what the context's stats do.
func TestDeltaPassCountsWhatItEmits(t *testing.T) {
	const leaves = 14
	b := graph.NewBuilder("hub").Vertex(1000, 1).Vertex(2000, 1)
	for i := 0; i < leaves; i++ {
		b.Vertex(graph.VertexID(i), 1).Edge(1000, graph.VertexID(i))
	}
	g := b.Edge(0, 1).Edge(1, 2).Edge(2000, 3).MustBuild()
	for v := graph.VertexID(100); v < 200; v++ { // bulk, so the balls stay under half the graph
		g.MustAddVertex(v, 1)
	}
	star := pattern.MustNew(graph.NewBuilder("star4").Vertices(1, 0, 1, 2, 3, 4).Star(0, 1, 2, 3, 4).MustBuild())
	d, err := core.NewDeltaContext(g, star, core.Options{Shards: 2})
	if err != nil {
		t.Fatalf("NewDeltaContext: %v", err)
	}
	defer d.Close()
	before := d.NumInstances()
	emitted0 := obs.Default.CounterValue("repro_delta_pass_representatives_total")
	counted0 := obs.Default.CounterValue("repro_delta_pass_counted_total")
	applied0 := obs.Default.CounterValue("repro_delta_pass_applied_total")

	g.MustAddEdge(1000, 2000)
	if err := d.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	requireDeltaMatchesScratch(t, d, g, star, "edge at the hub")
	st := d.Stats()
	if st.DeltaRefreshes != 1 {
		t.Fatalf("the refresh should take the delta path, stats %+v", st)
	}
	// The new edge makes 2000 a leaf of C(14, 3) more stars centred on the hub.
	gained := d.NumInstances() - before
	if want := leaves * (leaves - 1) * (leaves - 2) / 6; gained != want {
		t.Fatalf("the edge added %d stars, want C(%d, 3) = %d", gained, leaves, want)
	}
	// Only those stars use the new edge; every other star through the hub is
	// the same on both sides and is left out of both passes.
	if st.PassApplied != gained {
		t.Fatalf("the passes applied %d instances, want the %d stars that use the new edge", st.PassApplied, gained)
	}
	// The minus pass has no edge to pin: the edge is not in the old snapshot.
	if st.PassRepresentatives != gained || st.PassCounted != gained {
		t.Fatalf("the passes emitted %d representatives and counted %d, want the %d stars that use the new edge", st.PassRepresentatives, st.PassCounted, gained)
	}
	if emitted, counted := obs.Default.CounterValue("repro_delta_pass_representatives_total")-emitted0,
		obs.Default.CounterValue("repro_delta_pass_counted_total")-counted0; emitted != uint64(st.PassRepresentatives) || counted != uint64(st.PassCounted) {
		t.Fatalf("counters moved by %d emitted / %d counted, the context's stats say %d / %d", emitted, counted, st.PassRepresentatives, st.PassCounted)
	}
	if applied := obs.Default.CounterValue("repro_delta_pass_applied_total") - applied0; applied != uint64(st.PassApplied) {
		t.Fatalf("the applied counter moved by %d, the context's stats say %d", applied, st.PassApplied)
	}
}
