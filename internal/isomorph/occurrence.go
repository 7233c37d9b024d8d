// Package isomorph implements the subgraph isomorphism machinery the support
// measures are built on: enumeration of occurrences (Definition 2.1.8) of a
// pattern in a data graph, de-duplication of occurrences into instances
// (Definition 2.1.9), and automorphism / vertex-orbit computation used by the
// MI measure's transitive node subsets (Definition 3.2.3).
//
// Enumeration has two entry points, both over a frozen graph.Snapshot (the
// package never freezes a graph; callers choose the shard count where they
// freeze). EnumerateSnapshotWorkers streams: every worker lends its one
// Occurrence to its consumer for the length of each call, so a consumer
// folds it or copies out what it keeps, and the search allocates nothing per
// occurrence. EnumerateSnapshot is the one materializer: the consumer that
// keeps everything and returns it as a list in canonical order. The paper's
// measures want exactly those two things — MNI and the raw counts fold an
// occurrence into a projection and forget it (Definition 2.2.8), the
// hypergraph measures need the whole set (Definition 3.1.3).
package isomorph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Occurrence is an isomorphism f from a pattern P to a subgraph of the data
// graph G: an injective map from pattern nodes to data vertices that
// preserves vertex labels and maps every pattern edge onto a data edge.
//
// An occurrence names its images by VertexID, which means the same thing in
// every snapshot of a graph. The one a streaming consumer is lent by
// EnumerateSnapshotWorkers also carries them as dense indexes of the snapshot
// that was searched (IndexAt) — the space the search found them in, valid for
// that snapshot only — so a consumer that folds per snapshot never pays for a
// translation.
type Occurrence struct {
	// nodes is the pattern's node list in sorted order; images[i] is the data
	// vertex f(nodes[i]). Keeping a parallel slice representation makes
	// occurrences cheap to copy and hash.
	nodes  []pattern.NodeID
	images []graph.VertexID
	// indexes[i] is the dense index of images[i] in the searched snapshot;
	// nil unless the occurrence is lent by the enumeration engine.
	indexes []int32
}

// NewOccurrence builds an occurrence from an explicit mapping. It validates
// injectivity but not edge preservation; use EnumerateSnapshot for verified
// occurrences. It is exported mainly for tests that transcribe the paper's
// figures.
func NewOccurrence(p *pattern.Pattern, mapping map[pattern.NodeID]graph.VertexID) (*Occurrence, error) {
	nodes := p.Nodes()
	if len(mapping) != len(nodes) {
		return nil, fmt.Errorf("isomorph: mapping has %d entries, pattern has %d nodes", len(mapping), len(nodes))
	}
	images := make([]graph.VertexID, len(nodes))
	seen := make(map[graph.VertexID]bool, len(nodes))
	for i, n := range nodes {
		img, ok := mapping[n]
		if !ok {
			return nil, fmt.Errorf("isomorph: mapping is missing pattern node %d", n)
		}
		if seen[img] {
			return nil, fmt.Errorf("isomorph: mapping is not injective, data vertex %d used twice", img)
		}
		seen[img] = true
		images[i] = img
	}
	return &Occurrence{nodes: nodes, images: images}, nil
}

// Image returns f(v) for a pattern node v. The nodes slice is sorted, so the
// lookup is a binary search rather than a linear scan.
func (o *Occurrence) Image(v pattern.NodeID) (graph.VertexID, bool) {
	i := sort.Search(len(o.nodes), func(k int) bool { return o.nodes[k] >= v })
	if i < len(o.nodes) && o.nodes[i] == v {
		return o.images[i], true
	}
	return 0, false
}

// ImageAt returns f(Nodes()[i]) without copying the node or image slices; it
// is the allocation-free accessor used by streaming consumers.
func (o *Occurrence) ImageAt(i int) graph.VertexID { return o.images[i] }

// IndexAt returns the dense index of ImageAt(i) in the snapshot handed to
// EnumerateSnapshotWorkers. Only the occurrence that entry point lends to a
// consumer has one, for as long as it is lent: a copied, listed or hand-built
// occurrence (EnumerateSnapshot, NewOccurrence) outlives the snapshot whose
// index space it was found in, so on those IndexAt panics — translate with
// Snapshot.IndexOf(ImageAt(i)) instead.
func (o *Occurrence) IndexAt(i int) int32 {
	if o.indexes == nil {
		panic("isomorph: IndexAt on an occurrence that is not lent by EnumerateSnapshotWorkers; it has VertexIDs only")
	}
	return o.indexes[i]
}

// Len returns the number of pattern nodes of the occurrence.
func (o *Occurrence) Len() int { return len(o.nodes) }

// MustImage returns f(v) and panics if v is not a pattern node.
func (o *Occurrence) MustImage(v pattern.NodeID) graph.VertexID {
	img, ok := o.Image(v)
	if !ok {
		panic(fmt.Sprintf("isomorph: pattern node %d not in occurrence", v))
	}
	return img
}

// Nodes returns the pattern nodes in the fixed order used by Images.
func (o *Occurrence) Nodes() []pattern.NodeID {
	out := make([]pattern.NodeID, len(o.nodes))
	copy(out, o.nodes)
	return out
}

// Images returns the data-vertex images aligned with Nodes().
func (o *Occurrence) Images() []graph.VertexID {
	out := make([]graph.VertexID, len(o.images))
	copy(out, o.images)
	return out
}

// VertexSet returns f(V_P) as a sorted slice without duplicates.
func (o *Occurrence) VertexSet() []graph.VertexID {
	out := slices.Clone(o.images)
	slices.Sort(out)
	return out
}

// SubsetImage returns f(W) for a subset W of pattern nodes, as a sorted,
// de-duplicated slice. This is the image of a coarse-grained node subset
// (Definition 3.2.1).
func (o *Occurrence) SubsetImage(w []pattern.NodeID) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(w))
	for _, n := range w {
		if img, ok := o.Image(n); ok {
			out = append(out, img)
		}
	}
	// An occurrence is injective, so only a node repeated in w repeats an
	// image.
	slices.Sort(out)
	return slices.Compact(out)
}

// EdgeImage returns f(E_P): the set of data edges that pattern edges map to,
// in normalized sorted order.
func (o *Occurrence) EdgeImage(p *pattern.Pattern) []graph.Edge {
	edges := p.Edges()
	out := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		out = append(out, graph.Edge{U: o.MustImage(e.U), V: o.MustImage(e.V)}.Normalize())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Key returns a canonical string identifying the occurrence (the full node to
// vertex mapping). Two occurrences are the same isomorphism iff their keys
// are equal.
func (o *Occurrence) Key() string {
	s := ""
	for i, n := range o.nodes {
		s += fmt.Sprintf("%d>%d;", n, o.images[i])
	}
	return s
}

// String implements fmt.Stringer.
func (o *Occurrence) String() string { return "f{" + o.Key() + "}" }

// Compare orders two occurrences by their node list and then their image
// list, both compared numerically. It induces the canonical deterministic
// occurrence order used by SortOccurrences and the core context.
func (o *Occurrence) Compare(q *Occurrence) int {
	if len(o.nodes) != len(q.nodes) {
		if len(o.nodes) < len(q.nodes) {
			return -1
		}
		return 1
	}
	// Occurrences streamed out of one enumeration all share the search
	// plan's node slice; recognizing that by pointer identity skips the
	// element-wise node comparison, which roughly halves the cost of the
	// canonical sort behind EnumerateSnapshot.
	if len(o.nodes) == 0 || &o.nodes[0] != &q.nodes[0] {
		for i := range o.nodes {
			if o.nodes[i] != q.nodes[i] {
				if o.nodes[i] < q.nodes[i] {
					return -1
				}
				return 1
			}
		}
	}
	for i := range o.images {
		if o.images[i] != q.images[i] {
			if o.images[i] < q.images[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// SortOccurrences sorts occurrences into the canonical deterministic order
// (numeric comparison of node and image lists; see Compare). The comparison
// avoids materializing string keys, which matters when millions of
// occurrences stream out of the parallel enumeration engine. An O(n) prescan
// recognizes already-ordered input — the common case for the sequential
// engine, whose emission order coincides with the canonical order whenever
// the search order matches the sorted node order — and skips the sort.
func SortOccurrences(occs []*Occurrence) {
	sorted := true
	for i := 1; i < len(occs); i++ {
		if occs[i-1].Compare(occs[i]) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	sort.Slice(occs, func(i, j int) bool { return occs[i].Compare(occs[j]) < 0 })
}
