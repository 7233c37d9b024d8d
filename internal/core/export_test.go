package core

import (
	"repro/internal/graph"
	"repro/internal/isomorph"
)

// ListedOccurrences reports whether c has expanded its instance rank tuples
// into an occurrence list: its Instances() or its Occurrences().
func ListedOccurrences(c *Context) bool {
	return c.mat != nil && (c.mat.instances != nil || c.mat.occurrences != nil)
}

// DomainSets returns the maintained MNI domain of every node of d's pattern,
// aligned with Pattern().Nodes(): the VertexIDs its orbit's row holds, read
// through the snapshot d is synchronized with, ascending.
func DomainSets(d *DeltaContext) [][]graph.VertexID {
	rows := make([][]graph.VertexID, d.state.rows)
	for r, m := range d.state.masks {
		rows[r] = MaskIDs(d.snap, m)
	}
	return fanOut(d.state.rowLayout, rows)
}

// MaskIDs returns the VertexIDs of the dense indexes of snap that m holds,
// ascending; never nil.
func MaskIDs(snap *graph.Snapshot, m isomorph.Mask) []graph.VertexID {
	ids := make([]graph.VertexID, 0, m.Count())
	for x := int32(0); x < int32(snap.NumVertices()); x++ {
		if m.Has(x) {
			ids = append(ids, snap.ID(x))
		}
	}
	return ids
}
