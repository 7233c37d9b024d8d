package pattern_test

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// The pattern package as it was before patterns became compact, kept as the
// oracle of the differential and fuzz tests: the canonical code by trying
// all k! node orders and rendering each with fmt, and Extend by cloning the
// map-backed graph and renumbering it. Both work on plain graphs.

// referenceCode is the lexicographically smallest encoding of g over all
// node permutations: "L<label>." per node, then the upper triangle of the
// adjacency matrix under that order.
func referenceCode(g *graph.Graph) string {
	nodes := g.SortedVertices()
	k := len(nodes)

	sorted := make([]graph.VertexID, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool {
		li, lj := g.MustLabelOf(sorted[i]), g.MustLabelOf(sorted[j])
		if li != lj {
			return li < lj
		}
		di, dj := g.Degree(sorted[i]), g.Degree(sorted[j])
		if di != dj {
			return di < dj
		}
		return sorted[i] < sorted[j]
	})

	best := ""
	perm := make([]graph.VertexID, 0, k)
	used := make(map[graph.VertexID]bool, k)

	encode := func() string {
		var b strings.Builder
		for _, v := range perm {
			fmt.Fprintf(&b, "L%d.", g.MustLabelOf(v))
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if g.HasEdge(perm[i], perm[j]) {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
		}
		return b.String()
	}

	var search func()
	search = func() {
		if len(perm) == k {
			code := encode()
			if best == "" || code < best {
				best = code
			}
			return
		}
		for _, v := range sorted {
			if used[v] {
				continue
			}
			used[v] = true
			perm = append(perm, v)
			search()
			perm = perm[:len(perm)-1]
			used[v] = false
		}
	}
	search()
	return best
}

// refExtension is one grow step of referenceExtend.
type refExtension struct {
	Kind     string
	From, To graph.VertexID
	Label    graph.Label
	Result   *graph.Graph
}

// relabeled returns a copy of g whose nodes are renumbered 0..k-1 in sorted
// order of the original IDs.
func relabeled(g *graph.Graph) *graph.Graph {
	nodes := g.SortedVertices()
	remap := make(map[graph.VertexID]graph.VertexID, len(nodes))
	for i, v := range nodes {
		remap[v] = graph.VertexID(i)
	}
	out := graph.New(g.Name())
	for _, v := range nodes {
		out.MustAddVertex(remap[v], g.MustLabelOf(v))
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(remap[e.U], remap[e.V])
	}
	return out
}

// referenceExtend enumerates the grow steps of g — an edge between two
// non-adjacent nodes, or a new node with one of the labels attached to an
// existing one — keeping the first step per result code. generated counts
// the steps before that de-duplication.
func referenceExtend(g *graph.Graph, labels []graph.Label) (out []refExtension, generated int) {
	seen := make(map[string]bool)
	record := func(ext refExtension) {
		generated++
		code := referenceCode(ext.Result)
		if seen[code] {
			return
		}
		seen[code] = true
		out = append(out, ext)
	}

	nodes := g.SortedVertices()
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			u, v := nodes[i], nodes[j]
			if g.HasEdge(u, v) {
				continue
			}
			c := g.Clone()
			c.MustAddEdge(u, v)
			record(refExtension{Kind: "edge", From: u, To: v, Result: relabeled(c)})
		}
	}

	sortedLabels := make([]graph.Label, len(labels))
	copy(sortedLabels, labels)
	sort.Slice(sortedLabels, func(i, j int) bool { return sortedLabels[i] < sortedLabels[j] })
	newID := graph.VertexID(0)
	for _, v := range nodes {
		if v >= newID {
			newID = v + 1
		}
	}
	for _, v := range nodes {
		for _, l := range sortedLabels {
			c := g.Clone()
			c.MustAddVertex(newID, l)
			c.MustAddEdge(v, newID)
			record(refExtension{Kind: "vertex", From: v, To: newID, Label: l, Result: relabeled(c)})
		}
	}
	return out, generated
}
