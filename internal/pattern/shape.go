package pattern

import (
	"math/bits"

	"repro/internal/graph"
)

// shape is the compact labeled-graph form patterns are made of: node i
// carries labels[i] and the bitset row(i), whose bit j is set when i and j
// are adjacent. Rows are symmetric and have no diagonal. A shape has no node
// IDs; Pattern pairs it with the sorted ID list.
type shape struct {
	labels []graph.Label
	rows   []uint64 // len(labels) rows of words() words each
}

// newShape returns the edgeless shape on k nodes, all labeled zero.
func newShape(k int) shape {
	return shape{labels: make([]graph.Label, k), rows: make([]uint64, k*wordsFor(k))}
}

// wordsFor is the row length, in words, of a shape on k nodes.
func wordsFor(k int) int { return (k + 63) / 64 }

func (s shape) words() int { return wordsFor(len(s.labels)) }

// row returns node i's adjacency bitset.
func (s shape) row(i int) []uint64 {
	w := s.words()
	return s.rows[i*w : (i+1)*w]
}

// has reports whether nodes i and j are adjacent.
func (s shape) has(i, j int) bool { return s.row(i)[j>>6]>>(uint(j)&63)&1 != 0 }

// setEdge makes nodes i and j adjacent.
func (s shape) setEdge(i, j int) {
	s.row(i)[j>>6] |= 1 << (uint(j) & 63)
	s.row(j)[i>>6] |= 1 << (uint(i) & 63)
}

// degree returns the number of neighbors of node i.
func (s shape) degree(i int) int {
	d := 0
	for _, w := range s.row(i) {
		d += bits.OnesCount64(w)
	}
	return d
}

// connected reports whether every node is reachable from node 0.
func (s shape) connected() bool {
	k := len(s.labels)
	reached := make([]uint64, s.words())
	reached[0] = 1
	stack := []int{0}
	n := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for w, word := range s.row(i) {
			for fresh := word &^ reached[w]; fresh != 0; fresh &= fresh - 1 {
				reached[w] |= fresh & -fresh
				stack = append(stack, w<<6+bits.TrailingZeros64(fresh))
				n++
			}
		}
	}
	return n == k
}

// withEdge returns a copy of s in which nodes i and j are adjacent. The
// labels are shared: shapes are immutable once built.
func (s shape) withEdge(i, j int) shape {
	out := shape{labels: s.labels, rows: append([]uint64(nil), s.rows...)}
	out.setEdge(i, j)
	return out
}

// withLeaf returns a copy of s with one more node, labeled l and adjacent to
// node i only. The new node takes the last position.
func (s shape) withLeaf(i int, l graph.Label) shape {
	k := len(s.labels)
	out := newShape(k + 1)
	copy(out.labels, s.labels)
	out.labels[k] = l
	for n := 0; n < k; n++ {
		copy(out.row(n), s.row(n))
	}
	out.setEdge(i, k)
	return out
}
