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
