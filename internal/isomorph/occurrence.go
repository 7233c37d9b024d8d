// Package isomorph implements the subgraph isomorphism machinery the support
// measures are built on: enumeration of occurrences (Definition 2.1.8) of a
// pattern in a data graph, de-duplication of occurrences into instances
// (Definition 2.1.9), and the pattern's symmetry as the search uses it.
// Aut(P) is found by package pattern, which owns the one automorphism search
// (Pattern.Automorphisms) and also runs it on every connected subgraph of P
// for the MI measure and structural overlap (Pattern.TransitiveNodeSubsets,
// Definitions 3.2.3 and 4.5.2); NewSymmetry reads the group for the
// symmetry-broken search and the orbit rows of the MNI tables.
//
// Enumeration has two entry points, both over a frozen graph.Snapshot (the
// package never freezes a graph; callers choose the shard count where they
// freeze). EnumerateSnapshotRuns streams: the search does not descend into
// its last depth but hands it over a prefix at a time, every worker lending
// its one Occurrence — valid but at the last-matched position — with the run
// of candidates that complete it, so a consumer folds a whole run at once or
// copies out what it keeps, and the search allocates nothing per occurrence.
// EnumerateSnapshotWorkers is the same stream with each consumer wrapped to be
// lent the run's occurrences one at a time, complete. ListSnapshot is the
// one materializer: the consumer that keeps everything and returns it as a
// list in canonical order — one occurrence per instance under a Symmetry —
// of k-tuples of dense indexes, sorted as tuples; EnumerateSnapshot expands
// those into occurrences (TupleOccurrences). The paper's measures want
// exactly those two things — MNI and the raw counts fold an occurrence into a
// projection and forget it (Definition 2.2.8), the hypergraph measures need
// the whole set of instances (Definition 3.1.4).
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
// EnumerateSnapshotWorkers holds only the dense indexes of the snapshot that
// was searched (IndexAt) — the space the search found them in, valid for that
// snapshot only — and derives a VertexID from that snapshot when an accessor
// asks for one. So a consumer that folds by index never pays for a
// translation, and one that keeps VertexIDs pays only for those it reads. The
// one lent with a run (RunFunc) is a prefix: every position but the run's
// last-matched one holds its image, and that one is the run's to fill.
type Occurrence struct {
	// nodes is the pattern's node list in sorted order, shared by every
	// occurrence of one enumeration.
	nodes []pattern.NodeID
	// images[i] is the data vertex f(nodes[i]) of a listed or hand-built
	// occurrence; nil on a lent one.
	images []graph.VertexID
	// indexes[i] is the dense index of f(nodes[i]) in snap, the snapshot that
	// was searched; both are nil unless the occurrence is lent by the
	// enumeration engine.
	indexes []int32
	snap    *graph.Snapshot
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

// TupleOccurrences expands k-tuples of p's images laid end to end —
// tuples[j*k:(j+1)*k] occurrence j's, aligned with p.Nodes(), as
// ListSnapshot lists them — into occurrences, in the tuples' order; id names
// the VertexID of a tuple entry (Snapshot.ID for dense indexes). The images,
// the occurrences and the list are one allocation each. It returns nil for
// no tuples.
func TupleOccurrences(p *pattern.Pattern, tuples []int32, id func(int32) graph.VertexID) []*Occurrence {
	if len(tuples) == 0 {
		return nil
	}
	nodes, k := p.Nodes(), p.Size()
	images := make([]graph.VertexID, len(tuples))
	for i, x := range tuples {
		images[i] = id(x)
	}
	list := make([]Occurrence, len(tuples)/k)
	occs := make([]*Occurrence, len(list))
	for j := range list {
		list[j] = Occurrence{nodes: nodes, images: images[j*k : (j+1)*k : (j+1)*k]}
		occs[j] = &list[j]
	}
	return occs
}

// Image returns f(v) for a pattern node v. The nodes slice is sorted, so the
// lookup is a binary search rather than a linear scan.
func (o *Occurrence) Image(v pattern.NodeID) (graph.VertexID, bool) {
	i := sort.Search(len(o.nodes), func(k int) bool { return o.nodes[k] >= v })
	if i < len(o.nodes) && o.nodes[i] == v {
		return o.ImageAt(i), true
	}
	return 0, false
}

// ImageAt returns f(Nodes()[i]) without copying the node or image slices; it
// is the allocation-free accessor used by streaming consumers. On a lent
// occurrence it translates IndexAt(i) through the searched snapshot.
func (o *Occurrence) ImageAt(i int) graph.VertexID {
	if o.snap != nil {
		return o.snap.ID(o.indexes[i])
	}
	return o.images[i]
}

// IndexAt returns the dense index of ImageAt(i) in the snapshot handed to
// EnumerateSnapshotWorkers (or EnumerateSnapshotRuns). Only the occurrence
// those entry points lend to a consumer has one, for as long as it is lent: a copied, listed or hand-built
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
	out := make([]graph.VertexID, len(o.nodes))
	for i := range out {
		out[i] = o.ImageAt(i)
	}
	return out
}

// VertexSet returns f(V_P) as a sorted slice without duplicates.
func (o *Occurrence) VertexSet() []graph.VertexID {
	out := o.Images()
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
		s += fmt.Sprintf("%d>%d;", n, o.ImageAt(i))
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
	for i := range o.nodes {
		if a, b := o.ImageAt(i), q.ImageAt(i); a != b {
			if a < b {
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
	slices.SortFunc(occs, (*Occurrence).Compare)
}
