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
// context's pattern, reading their images by node position:
//   - simple: the two image sets meet;
//   - harmful: some node v has f1(v) in the image of f2 and f2(v) in that of
//     f1, so both of v's images lie in the intersection;
//   - structural: some transitive pair of distinct nodes v, w (two nodes of
//     one transitive node subset) has f1(v) = f2(w), an image that lies in
//     the intersection by definition. The nodes must be distinct: with v = w
//     every harmful overlap would be structural as well, contradicting the
//     taxonomy of Figure 10.
//
// The pattern must have at most 64 nodes; Context.TransitiveNodeSubsets
// reports the error ClassifyOverlap panics with on a larger one.
func (c *Context) ClassifyOverlap(f1, f2 *isomorph.Occurrence) OverlapKind {
	if _, err := c.TransitiveNodeSubsets(); err != nil {
		panic(err)
	}
	var kind OverlapKind
	for v := 0; v < f1.Len(); v++ {
		if holds(f2, f1.ImageAt(v)) {
			kind.Simple = true
			if holds(f1, f2.ImageAt(v)) {
				kind.Harmful = true
				break
			}
		}
	}
	if !kind.Simple {
		return kind
	}
	for _, pair := range c.pairs {
		v, w := pair[0], pair[1]
		if f1.ImageAt(v) == f2.ImageAt(w) || f1.ImageAt(w) == f2.ImageAt(v) {
			kind.Structural = true
			break
		}
	}
	return kind
}

// holds reports whether x is an image of f.
func holds(f *isomorph.Occurrence, x graph.VertexID) bool {
	for i := 0; i < f.Len(); i++ {
		if f.ImageAt(i) == x {
			return true
		}
	}
	return false
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
// A pattern of more than 64 nodes is an error, as for
// Context.TransitiveNodeSubsets.
func (c *Context) CountOverlaps() (OverlapCounts, error) {
	if _, err := c.TransitiveNodeSubsets(); err != nil {
		return OverlapCounts{}, err
	}
	occs := c.Occurrences()
	counts := OverlapCounts{}
	for i := range occs {
		for j := i + 1; j < len(occs); j++ {
			counts.Pairs++
			k := c.ClassifyOverlap(occs[i], occs[j])
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
	return counts, nil
}
