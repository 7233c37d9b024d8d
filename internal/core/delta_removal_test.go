package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestDeltaContextMatchesScratchUnderDeletions extends the tentpole
// correctness bar to removals: after batches that delete edges and vertices
// (cascades included) — and batches mixing inserts with deletions — the
// delta-maintained aggregates must still equal a from-scratch context, across
// shard counts and parallelism (run under -race in CI).
func TestDeltaContextMatchesScratchUnderDeletions(t *testing.T) {
	for _, tc := range deltaCases(200, 17) {
		p := tc.p
		for _, set := range tc.settings {
			shards, par := set[0], set[1]
			g := tc.graph()
			d, err := core.NewDeltaContext(g, p, core.Options{Shards: shards, Parallelism: par})
			if err != nil {
				t.Fatalf("%s shards=%d par=%d: NewDeltaContext: %v", tc.name, shards, par, err)
			}
			defer d.Close()
			if d.NumOccurrences() == 0 {
				t.Fatalf("%s: workload has no occurrences; test needs a non-trivial baseline", tc.name)
			}

			// Late-arrival vertices of the preferential-attachment graph have
			// low degree, so mutation balls around them stay small and the
			// refreshes exercise the delta path rather than the fallback.
			ids := g.SortedVertices()
			refresh := func(step int, tag string) {
				t.Helper()
				if err := d.Refresh(); err != nil {
					t.Fatalf("%s shards=%d par=%d step=%d %s: Refresh: %v", tc.name, shards, par, step, tag, err)
				}
				requireDeltaMatchesScratch(t, d, g, p, tc.name+" "+tag)
			}
			for step := 0; step < 5; step++ {
				// Remove one existing edge of a low-degree vertex.
				u := ids[120+step*11]
				if nbs := g.Neighbors(u); g.HasVertex(u) && len(nbs) > 0 {
					g.MustRemoveEdge(u, nbs[step%len(nbs)])
				}
				refresh(step, "after edge removal")

				// Remove a low-degree vertex with its cascade.
				if victim := ids[150+step*9]; g.HasVertex(victim) {
					g.MustRemoveVertex(victim)
				}
				refresh(step, "after vertex removal")

				// Mix inserts and a removal in one batch: a fresh vertex
				// wired to survivors, minus another edge.
				fresh := graph.VertexID(40_000 + step)
				g.MustAddVertex(fresh, 1)
				for _, w := range []graph.VertexID{ids[130+step], ids[190-step]} {
					if g.HasVertex(w) && !g.HasEdge(fresh, w) {
						g.MustAddEdge(fresh, w)
					}
				}
				if v := ids[110+step*13]; g.HasVertex(v) {
					if nbs := g.Neighbors(v); len(nbs) > 0 {
						g.MustRemoveEdge(v, nbs[0])
					}
				}
				refresh(step, "after mixed batch")
			}
			if st := d.Stats(); st.DeltaRefreshes == 0 {
				t.Fatalf("%s shards=%d par=%d: no removal refresh took the delta path (stats %+v)", tc.name, shards, par, st)
			}
		}
	}
}

// TestDeltaContextDrainsToZero removes every edge of a small graph one batch
// at a time: the refcounted tables must subtract all the way down to empty
// without ever going negative (a negative refcount panics in the table's merge).
func TestDeltaContextDrainsToZero(t *testing.T) {
	p := trianglePattern()
	g := gen.BarabasiAlbert(60, 3, gen.UniformLabels{K: 2}, 7)
	d, err := core.NewDeltaContext(g, p, core.Options{Shards: 2, Parallelism: 1})
	if err != nil {
		t.Fatalf("NewDeltaContext: %v", err)
	}
	defer d.Close()
	if d.NumOccurrences() == 0 {
		t.Fatal("workload has no triangles; test needs a non-trivial baseline")
	}

	for _, e := range g.Edges() {
		g.MustRemoveEdge(e.U, e.V)
		if err := d.Refresh(); err != nil {
			t.Fatalf("Refresh after removing %v: %v", e, err)
		}
	}
	if d.NumOccurrences() != 0 || d.NumInstances() != 0 {
		t.Fatalf("edgeless graph still has %d occurrences / %d instances", d.NumOccurrences(), d.NumInstances())
	}
	for i, size := range d.MNIDomainSizes() {
		if size != 0 {
			t.Fatalf("node %d still has domain size %d", i, size)
		}
	}
	requireDeltaMatchesScratch(t, d, g, p, "drained")
}

// TestDeltaContextIsolatedVertexRemoval pins the corner where the removed
// vertex has no edges: it exists only in the old snapshot, so it can seed
// only the minus-ball, and the refresh must still be an exact no-op on the
// aggregates.
func TestDeltaContextIsolatedVertexRemoval(t *testing.T) {
	p := trianglePattern()
	g := gen.BarabasiAlbert(80, 3, gen.UniformLabels{K: 2}, 3)
	iso := graph.VertexID(50_000)
	g.MustAddVertex(iso, 1)
	d, err := core.NewDeltaContext(g, p, core.Options{Shards: 2})
	if err != nil {
		t.Fatalf("NewDeltaContext: %v", err)
	}
	defer d.Close()
	occ, inst := d.NumOccurrences(), d.NumInstances()

	g.MustRemoveVertex(iso)
	if err := d.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if d.NumOccurrences() != occ || d.NumInstances() != inst {
		t.Fatalf("isolated removal changed aggregates: %d/%d, want %d/%d",
			d.NumOccurrences(), d.NumInstances(), occ, inst)
	}
	if st := d.Stats(); st.DeltaRefreshes != 1 {
		t.Fatalf("isolated removal should take the delta path, stats %+v", st)
	}
	requireDeltaMatchesScratch(t, d, g, p, "isolated removal")
}
