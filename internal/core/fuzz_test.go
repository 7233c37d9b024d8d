package core_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/isomorph"
	"repro/internal/lp"
	"repro/internal/measures"
	"repro/internal/pattern"
)

// FuzzStreamedAggregates checks, on a small labeled graph and a connected
// pattern of at most four nodes decoded from the fuzz input, that the
// occurrence count, instance count, MNI domain sizes and MNI value of a
// streaming and of a materialized context equal what a plain scan of
// isomorph.EnumerateSnapshot's list and its grouping by image subgraph gives,
// and that the materialized context's occurrence list, expanded from its
// instances, is that list. Every materialized context is also built at
// parallelism 1 and 4 over 1 and 7 shards, and its H_I — laid out from the
// search's dense indexes — held to requireAddEdgeLayout's rebuild through
// AddEdge.
func FuzzStreamedAggregates(f *testing.F) {
	f.Add([]byte{})
	// A one-label triangle in K4: 24 occurrences, 4 instances.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// A labeled path in a labeled 6-cycle with a chord, three workers.
	f.Add([]byte{1, 2, 1, 0, 1, 0, 0, 1, 0, 4, 0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, par := decodeGraphAndPattern(data)
		occs, instances, sizes := scanFullSearch(g, p)
		mni := slices.Min(sizes)
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
			if !streaming {
				requireFullList(t, fmt.Sprintf("graph %v pattern %v par=%d", g.Edges(), p, par), ctx, occs)
			}
		}
		for _, par := range []int{1, 4} {
			for _, shards := range []int{1, 7} {
				ctx := core.MustNewContext(g, p, core.Options{Parallelism: par, Shards: shards})
				requireAddEdgeLayout(t, fmt.Sprintf("graph %v pattern %v par=%d shards=%d", g.Edges(), p, par, shards), ctx)
			}
		}
	})
}

// requireAddEdgeLayout rebuilds a materialized context's H_I the plain way —
// hypergraph.New and one AddEdge per instance, over its vertex set — and
// requires the context's to be that hypergraph in everything a solver reads:
// its edges in order, Vertices(), every incidence list, the kernel with its
// origin, a minimum vertex cover found by the same search (so the same branch
// orders) and the LP optimum to the bit.
func requireAddEdgeLayout(t *testing.T, tag string, ctx *core.Context) {
	t.Helper()
	got, want := ctx.OccurrenceHypergraph(), hypergraph.New()
	for _, in := range ctx.Instances() {
		want.MustAddEdge(in.VertexSet())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("%s: H_I has edges %v, AddEdge builds %v", tag, got.Edges(), want.Edges())
	}
	if !slices.Equal(got.Vertices(), want.Vertices()) {
		t.Fatalf("%s: H_I has vertices %v, AddEdge builds %v", tag, got.Vertices(), want.Vertices())
	}
	for _, v := range want.Vertices() {
		if !slices.Equal(got.IncidentEdges(v), want.IncidentEdges(v)) {
			t.Fatalf("%s: vertex %d is in edges %v of H_I, %v of AddEdge's", tag, v, got.IncidentEdges(v), want.IncidentEdges(v))
		}
	}
	if a, b := got.MinimumVertexCover(200), want.MinimumVertexCover(200); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: H_I's cover search gives %+v, AddEdge's %+v", tag, a, b)
	}
	gotK, gotOrigin := ctx.Kernel()
	wantK, wantOrigin := want.Kernel()
	if !reflect.DeepEqual(gotK.Edges(), wantK.Edges()) || !slices.Equal(gotOrigin, wantOrigin) {
		t.Fatalf("%s: kernel %v from %v, AddEdge's %v from %v", tag, gotK.Edges(), gotOrigin, wantK.Edges(), wantOrigin)
	}
	if a, b := ctx.Relaxation().Value, lp.Solve(wantK).Value; math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: ν = %b, AddEdge's kernel gives %b", tag, a, b)
	}
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
// and every maintained domain, as a set of vertices, a cold pass's domain,
// whether the batch was applied as two delta passes — searches rooted at
// mutated edges whose dense indexes the batch's own vertex inserts and
// removals shifted between the two sides, the rows remapped between them and
// every suspect of the minus pass re-checked after — or as a saturation
// rebuild; and the re-checks may clear no more suspects than they checked.
// Both of those search one representative per instance and count into orbit
// rows, and so does every context, so the second oracle is the full search's
// list (scanFullSearch): every occurrence listed, grouped into instances and
// scanned into a set per node, sharing neither.
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
			sd, _, err := core.NewDeltaContextAt(g, snap, sp, core.Options{Parallelism: par}, nil)
			if err != nil {
				t.Fatal(err)
			}
			shared = append(shared, sd)
			maxRadius = max(maxRadius, sd.Radius())
		}

		requireFresh := func(op int, how string, d *core.DeltaContext) {
			t.Helper()
			got := d.Context()
			fresh := core.MustNewContext(g.Clone(), d.Pattern(), core.Options{Streaming: true, Parallelism: par})
			if got.NumOccurrences() != fresh.NumOccurrences() || got.NumInstances() != fresh.NumInstances() ||
				!reflect.DeepEqual(got.MNIDomainSizes(), fresh.MNIDomainSizes()) {
				t.Fatalf("after op %d, graph %v pattern %v par=%d, %s (stats %+v): maintained %d occurrences / %d instances / domains %v, from scratch %d / %d / %v",
					op, g.Edges(), d.Pattern(), par, how, d.Stats(), got.NumOccurrences(), got.NumInstances(), got.MNIDomainSizes(),
					fresh.NumOccurrences(), fresh.NumInstances(), fresh.MNIDomainSizes())
			}
			occs, instances, sizes := scanFullSearch(g, d.Pattern())
			if got.NumOccurrences() != len(occs) || got.NumInstances() != instances || !reflect.DeepEqual(got.MNIDomainSizes(), sizes) {
				t.Fatalf("after op %d, graph %v pattern %v par=%d, %s (stats %+v): maintained %d occurrences / %d instances / domains %v, the full search's list %d / %d / %v",
					op, g.Edges(), d.Pattern(), par, how, d.Stats(), got.NumOccurrences(), got.NumInstances(), got.MNIDomainSizes(),
					len(occs), instances, sizes)
			}
			requireDomainsMatchCold(t, d, g, fmt.Sprintf("after op %d, graph %v pattern %v par=%d, %s (stats %+v)", op, g.Edges(), d.Pattern(), par, how, d.Stats()))
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
					instances, sizes := sd.NumInstances(), sd.MNIDomainSizes()
					moved, err := sd.Apply(batch)
					if err != nil {
						t.Fatalf("op %d: Apply: %v", op, err)
					}
					if want := sd.NumInstances() != instances || !reflect.DeepEqual(sd.MNIDomainSizes(), sizes); moved != want {
						t.Fatalf("op %d, pattern %v: Apply reported moved=%v, but %d instances / domains %v became %d / %v",
							op, sd.Pattern(), moved, instances, sizes, sd.NumInstances(), sd.MNIDomainSizes())
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

// scanFullSearch is the oracle the contexts are held to, sharing no code
// with them past the search itself: isomorph.EnumerateSnapshot's full list of
// p's occurrences in g — the search with no symmetry — its instance count by
// countInstances' grouping, and, aligned with p.Nodes(), the distinct images
// of every node by a scan of the list.
func scanFullSearch(g *graph.Graph, p *pattern.Pattern) (occs []*isomorph.Occurrence, instances int, sizes []int) {
	occs = isomorph.EnumerateSnapshot(g.Freeze(), p, isomorph.Options{Parallelism: 1})
	for _, n := range p.Nodes() {
		images := make(map[graph.VertexID]bool)
		for _, o := range occs {
			images[o.MustImage(n)] = true
		}
		sizes = append(sizes, len(images))
	}
	return occs, countInstances(p, occs), sizes
}

// instanceKey names the instance (Definition 2.1.9) o is an occurrence of:
// its image subgraph, as its vertex set and its edge image.
func instanceKey(p *pattern.Pattern, o *isomorph.Occurrence) string {
	return fmt.Sprint(o.VertexSet(), o.EdgeImage(p))
}

// countInstances groups occs by instanceKey and counts the groups.
func countInstances(p *pattern.Pattern, occs []*isomorph.Occurrence) int {
	seen := make(map[string]bool)
	for _, o := range occs {
		seen[instanceKey(p, o)] = true
	}
	return len(seen)
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
