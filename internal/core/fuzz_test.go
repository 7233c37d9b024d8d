package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/measures"
	"repro/internal/pattern"
)

// FuzzStreamedAggregates checks, on a small labeled graph and a connected
// pattern of at most four nodes decoded from the fuzz input, that the
// occurrence count, instance count, MNI domain sizes and MNI value of a
// streaming and of a materialized context equal what a plain scan of
// isomorph.EnumerateSnapshot's list and isomorph.Instances' grouping gives.
func FuzzStreamedAggregates(f *testing.F) {
	f.Add([]byte{})
	// A one-label triangle in K4: 24 occurrences, 4 instances.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// A labeled path in a labeled 6-cycle with a chord, three workers.
	f.Add([]byte{1, 2, 1, 0, 1, 0, 0, 1, 0, 4, 0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, par := decodeGraphAndPattern(data)
		occs := isomorph.EnumerateSnapshot(g.Freeze(), p, isomorph.Options{Parallelism: 1})
		nodes := p.Nodes()
		sizes := make([]int, len(nodes))
		mni := 0
		for i, n := range nodes {
			images := make(map[graph.VertexID]bool)
			for _, o := range occs {
				images[o.MustImage(n)] = true
			}
			sizes[i] = len(images)
			if i == 0 || sizes[i] < mni {
				mni = sizes[i]
			}
		}

		instances := len(isomorph.Instances(p, occs))
		for _, streaming := range []bool{true, false} {
			ctx := core.MustNewContext(g, p, core.Options{Streaming: streaming, Parallelism: par})
			if ctx.NumOccurrences() != len(occs) {
				t.Fatalf("graph %v pattern %v par=%d streaming=%v: %d occurrences, enumeration lists %d", g.Edges(), p, par, streaming, ctx.NumOccurrences(), len(occs))
			}
			if ctx.NumInstances() != instances {
				t.Fatalf("graph %v pattern %v par=%d streaming=%v: %d instances, grouping the list gives %d", g.Edges(), p, par, streaming, ctx.NumInstances(), instances)
			}
			if got := ctx.MNIDomainSizes(); !reflect.DeepEqual(got, sizes) {
				t.Fatalf("graph %v pattern %v par=%d streaming=%v: domain sizes %v, scan gives %v", g.Edges(), p, par, streaming, got, sizes)
			}
			res, err := measures.MNI{}.Compute(ctx)
			if err != nil || res.Value != float64(mni) {
				t.Fatalf("graph %v pattern %v par=%d streaming=%v: MNI = %v (err %v), scan gives %d", g.Edges(), p, par, streaming, res.Value, err, mni)
			}
		}
	})
}

// FuzzDeltaAggregates checks DeltaContext against re-evaluation from scratch
// (Berkholz et al., PAPERS.md: an answer maintained under updates equals the
// answer recomputed after every update). The first byte splits the input: that
// many bytes decode to a graph and a pattern exactly as in
// FuzzStreamedAggregates, with the graph's IDs spread to 0, 3, 6, ... so a
// vertex can be added between two others; the rest is a script of three-byte
// operations — add an edge, remove an edge, add a vertex at any ID from 0 to
// 47, remove a vertex (its edges with it), or refresh — with a refresh after
// the last. After every refresh the maintained occurrence count, instance
// count and MNI domain sizes must equal a from-scratch streaming context's,
// whether the batch was applied as two delta passes — searches rooted at dirty
// dense indexes that the batch's own vertex inserts and removals shifted
// between the two sides, each counted representative applied straight to the
// VertexID-keyed state — or as a saturation rebuild. Both of those search one
// representative per instance and count into orbit rows, so a
// materialized context is the second oracle: the full search, every occurrence
// listed and scanned into a row per node, sharing neither.
//
// Beside the decoded pattern, refreshed on its own through
// DeltaContext.Refresh, four one-label patterns of diameters one, two, three
// and one (edge, 3-path, 4-path, triangle) and the decoded pattern once more
// are kept as an owner of many contexts keeps them: built by
// NewDeltaContextAt on one snapshot, fed by one feed, and handed one shared
// Batch per refresh, prepared for the largest diameter. Every one of them is
// held to the same two oracles after every refresh — so the script's vertex
// removals, its vertices present on one side of a batch only, and its batches
// whose dirty vertices all lie on one side (the other side must be no pass,
// not a pass without a restriction) reach the shared path as well.
func FuzzDeltaAggregates(f *testing.F) {
	f.Add([]byte{})
	// One-label triangles in K4 (IDs 0, 3, 6, 9): add vertex 4 between two of
	// them and wire it to 0 and 3, refresh; remove vertex 0, refresh.
	f.Add([]byte{26, 0, 0, 1, 0, 0, 0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3,
		2, 4, 0, 0, 0, 2, 0, 1, 2, 4, 0, 0, 3, 0, 0, 4, 0, 0})
	// A labeled path in a labeled 6-cycle with a chord, three workers: remove
	// an edge and a vertex and add vertex 1 between the two lowest, wired to
	// the lowest, in one batch; then one more edge.
	f.Add([]byte{30, 1, 2, 1, 0, 1, 0, 0, 1, 0, 4, 0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 3,
		1, 2, 0, 3, 4, 0, 2, 1, 1, 0, 0, 1, 4, 0, 0, 0, 2, 5})
	// An edge pattern on a 13-vertex path, sparse enough that both batches
	// stay under the saturation limit and are applied as deltas: add vertex 1
	// between 0 and 3 and wire it to 0, refresh; remove the highest vertex and
	// the lowest — every surviving index shifts — and refresh.
	f.Add([]byte{45, 0, 1, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12,
		2, 1, 0, 0, 0, 1, 4, 0, 0, 3, 13, 0, 3, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		split := 0
		if len(data) > 0 {
			split = min(int(data[0]), len(data)-1)
			data = data[1:]
		}
		dense, p, par := decodeGraphAndPattern(data[:split])
		script := data[split:]
		g := spreadIDs(dense, 3)

		d, err := core.NewDeltaContext(g, p, core.Options{Parallelism: par, Shards: par})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()

		freeze := graph.FreezeOptions{Shards: par}
		feed := g.Subscribe()
		defer feed.Close()
		snap := g.FreezeSharded(freeze)
		one := func(b *graph.Builder) *pattern.Pattern { return pattern.MustNew(b.MustBuild()) }
		var shared []*core.DeltaContext
		maxRadius := 0
		for _, sp := range []*pattern.Pattern{
			one(graph.NewBuilder("edge").Vertices(1, 0, 1).Edge(0, 1)),
			one(graph.NewBuilder("path3").Vertices(1, 0, 1, 2).Path(0, 1, 2)),
			one(graph.NewBuilder("path4").Vertices(1, 0, 1, 2, 3).Path(0, 1, 2, 3)),
			one(graph.NewBuilder("triangle").Vertices(1, 0, 1, 2).Cycle(0, 1, 2)),
			p,
		} {
			sd, err := core.NewDeltaContextAt(g, snap, sp, core.Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			shared = append(shared, sd)
			maxRadius = max(maxRadius, sd.Radius())
		}

		requireFresh := func(op int, how string, d *core.DeltaContext) {
			t.Helper()
			got := d.Context()
			for _, streaming := range []bool{true, false} {
				fresh := core.MustNewContext(g.Clone(), d.Pattern(), core.Options{Streaming: streaming, Parallelism: par})
				if got.NumOccurrences() != fresh.NumOccurrences() || got.NumInstances() != fresh.NumInstances() ||
					!reflect.DeepEqual(got.MNIDomainSizes(), fresh.MNIDomainSizes()) {
					t.Fatalf("after op %d, graph %v pattern %v par=%d, %s (stats %+v): maintained %d occurrences / %d instances / domains %v, from scratch (streaming=%v) %d / %d / %v",
						op, g.Edges(), d.Pattern(), par, how, d.Stats(), got.NumOccurrences(), got.NumInstances(), got.MNIDomainSizes(),
						streaming, fresh.NumOccurrences(), fresh.NumInstances(), fresh.MNIDomainSizes())
				}
			}
		}
		check := func(op int) {
			t.Helper()
			if err := d.Refresh(); err != nil {
				t.Fatalf("op %d: Refresh: %v", op, err)
			}
			requireFresh(op, "refreshed alone", d)
			if muts := feed.Drain(); len(muts) > 0 {
				next := g.FreezeSharded(freeze)
				batch := core.NewBatch(snap, next, muts, maxRadius)
				snap = next
				for _, sd := range shared {
					if err := sd.Apply(batch); err != nil {
						t.Fatalf("op %d: Apply: %v", op, err)
					}
				}
			}
			for _, sd := range shared {
				requireFresh(op, "fed a shared batch", sd)
			}
		}
		check(-1)
		for op := 0; len(script) >= 3; op++ {
			kind, a, b := script[0]%5, int(script[1]), int(script[2])
			script = script[3:]
			vs := g.SortedVertices()
			switch kind {
			case 0:
				if len(vs) >= 2 {
					if u, v := vs[a%len(vs)], vs[b%len(vs)]; u != v && !g.HasEdge(u, v) {
						g.MustAddEdge(u, v)
					}
				}
			case 1:
				if es := g.Edges(); len(es) > 0 {
					e := es[(a+256*b)%len(es)]
					g.MustRemoveEdge(e.U, e.V)
				}
			case 2:
				if v := graph.VertexID(a % 48); !g.HasVertex(v) {
					g.MustAddVertex(v, graph.Label(1+b%3))
				}
			case 3:
				if len(vs) > 0 {
					g.MustRemoveVertex(vs[a%len(vs)])
				}
			case 4:
				check(op)
			}
		}
		check(len(data))
	})
}

// decodeGraphAndPattern reads from data a connected pattern of two to four
// nodes, an enumeration parallelism of one to four, and a data graph of two
// to thirteen vertices, all over one to three labels: a label-count byte, a
// pattern (size, labels, a spanning tree — node i hangs off an earlier node —
// and a mask of extra edges), then the graph (size, labels, and every
// remaining byte pair as an edge). Missing bytes read as zero.
func decodeGraphAndPattern(data []byte) (*graph.Graph, *pattern.Pattern, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	labels := 1 + next()%3
	par := 1 + next()%4

	k := 2 + next()%3
	pb := graph.NewBuilder("fuzz-pattern")
	for i := 0; i < k; i++ {
		pb.Vertex(graph.VertexID(i), graph.Label(1+next()%labels))
	}
	for i := 1; i < k; i++ {
		pb.Edge(graph.VertexID(next()%i), graph.VertexID(i))
	}
	pg := pb.MustBuild()
	extra := next()
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if extra&1 == 1 && !pg.HasEdge(graph.VertexID(i), graph.VertexID(j)) {
				pg.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
			}
			extra >>= 1
		}
	}

	n := 2 + next()%12
	g := graph.New("fuzz-graph")
	for i := 0; i < n; i++ {
		g.MustAddVertex(graph.VertexID(i), graph.Label(1+next()%labels))
	}
	for len(data) >= 2 {
		u, v := graph.VertexID(next()%n), graph.VertexID(next()%n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g, pattern.MustNew(pg), par
}
