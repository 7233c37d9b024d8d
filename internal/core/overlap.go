package core

import (
	"repro/internal/graph"
	"repro/internal/isomorph"
)

// OverlapKind classifies how two occurrences of a pattern overlap
// (Section 4.5 and Figures 9-10). The kinds are not mutually exclusive:
// harmful and structural overlap each imply simple overlap, and both can hold
// at the same time.
type OverlapKind struct {
	// Simple is vertex overlap (Definition 2.2.3): the vertex images
	// intersect.
	Simple bool
	// Harmful is harmful overlap (Definition 4.5.1): some pattern node v has
	// both f1(v) and f2(v) inside the image intersection.
	Harmful bool
	// Structural is structural overlap (Definition 4.5.2): some pair of
	// pattern nodes v, w belonging to a common transitive node subset of a
	// subgraph of P satisfies f1(v) = f2(w) inside the image intersection.
	Structural bool
}

// ClassifyOverlap classifies the overlap between two occurrences of the
// context's pattern under the given subgraph policy for transitive node
// subsets.
func (c *Context) ClassifyOverlap(f1, f2 *isomorph.Occurrence, policy isomorph.SubgraphPolicy) OverlapKind {
	var kind OverlapKind

	set1 := make(map[graph.VertexID]bool)
	for _, v := range f1.VertexSet() {
		set1[v] = true
	}
	intersection := make(map[graph.VertexID]bool)
	for _, v := range f2.VertexSet() {
		if set1[v] {
			intersection[v] = true
		}
	}
	if len(intersection) == 0 {
		return kind
	}
	kind.Simple = true

	// Harmful overlap: some node's two images both land in the intersection.
	for _, v := range c.p.Nodes() {
		i1 := f1.MustImage(v)
		i2 := f2.MustImage(v)
		if intersection[i1] && intersection[i2] {
			kind.Harmful = true
			break
		}
	}

	// Structural overlap: a transitive pair of distinct nodes (v, w) with
	// f1(v) = f2(w) in the intersection. The pair must be distinct: if v = w
	// were allowed, every harmful overlap would trivially be structural as
	// well, contradicting the taxonomy of Figure 10.
	subsets := c.TransitiveNodeSubsets(policy)
	for _, subset := range subsets {
		for _, v := range subset {
			for _, w := range subset {
				if v == w {
					continue
				}
				iv := f1.MustImage(v)
				if iv == f2.MustImage(w) && intersection[iv] {
					kind.Structural = true
					return kind
				}
				iw := f1.MustImage(w)
				if iw == f2.MustImage(v) && intersection[iw] {
					kind.Structural = true
					return kind
				}
			}
		}
	}
	return kind
}

// OverlapCounts summarizes the pairwise overlap classification of a
// context's occurrences: how many occurrence pairs exhibit each overlap kind.
type OverlapCounts struct {
	Pairs      int
	Simple     int
	Harmful    int
	Structural int
}

// CountOverlaps classifies every pair of occurrences and tallies the kinds.
func (c *Context) CountOverlaps(policy isomorph.SubgraphPolicy) OverlapCounts {
	n := len(c.occurrences)
	counts := OverlapCounts{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			counts.Pairs++
			k := c.ClassifyOverlap(c.occurrences[i], c.occurrences[j], isomorph.SubgraphPolicy(policy))
			if k.Simple {
				counts.Simple++
			}
			if k.Harmful {
				counts.Harmful++
			}
			if k.Structural {
				counts.Structural++
			}
		}
	}
	return counts
}
