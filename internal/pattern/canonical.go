package pattern

import (
	"bytes"
	"strconv"

	"repro/internal/graph"
)

// CanonicalCode returns a canonical string form of the pattern: two patterns
// have equal codes if and only if they are isomorphic (Definition 2.1.5).
//
// The code is the lexicographically smallest string, over all orderings of
// the nodes, of one "L<label>." token per node followed by the upper
// triangle of the adjacency matrix under that ordering, row by row, as '0'
// and '1'. It plays the same role as the minimum DFS code in gSpan but is
// simpler to verify and exact. It is computed once per pattern and cached.
func (p *Pattern) CanonicalCode() string {
	if c := p.code.Load(); c != nil {
		return *c
	}
	code := p.shape.canonicalCode()
	p.code.Store(&code)
	return code
}

// IsIsomorphicTo reports whether p and q are isomorphic labeled graphs.
func (p *Pattern) IsIsomorphicTo(q *Pattern) bool {
	if p.Size() != q.Size() || p.NumEdges() != q.NumEdges() {
		return false
	}
	return p.CanonicalCode() == q.CanonicalCode()
}

// canonicalCode computes the code of a shape without trying all k! node
// orders. A token ends in '.' and holds no other '.', so no token is a
// prefix of another: the smallest token sequence is the tokens in sorted
// order, and every ordering that attains it differs from the sorted one only
// by permuting nodes that carry the same label. All such orderings share the
// token prefix, so the minimum is decided by the triangle alone — compared
// as packed words, most significant bit first, and rendered once at the end.
func (s shape) canonicalCode() string {
	k := len(s.labels)
	c := canonSearch{
		s:       s,
		perm:    make([]int, k),
		cellEnd: make([]int, k),
		best:    make([]int, k),
	}
	// Stable insertion sort of the nodes by token.
	for i := 0; i < k; i++ {
		j := i
		for ; j > 0 && tokenLess(s.labels[i], s.labels[c.perm[j-1]]); j-- {
			c.perm[j] = c.perm[j-1]
		}
		c.perm[j] = i
	}
	// A cell is a run of equal labels; cellEnd[i] is the end of i's cell.
	for i := k - 1; i >= 0; i-- {
		if i+1 < k && s.labels[c.perm[i]] == s.labels[c.perm[i+1]] {
			c.cellEnd[i] = c.cellEnd[i+1]
		} else {
			c.cellEnd[i] = i + 1
		}
	}
	nbits := k * (k - 1) / 2
	tri := make([]uint64, 2*((nbits+63)/64)) // the current triangle and the best
	c.cur, c.bestTri = tri[:len(tri)/2], tri[len(tri)/2:]
	c.permute(0)

	buf := make([]byte, 0, 4*k+nbits)
	for _, i := range c.best {
		buf = append(buf, 'L')
		buf = strconv.AppendInt(buf, int64(s.labels[i]), 10)
		buf = append(buf, '.')
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if s.has(c.best[a], c.best[b]) {
				buf = append(buf, '1')
			} else {
				buf = append(buf, '0')
			}
		}
	}
	return string(buf)
}

// tokenLess orders labels by their code tokens "L<a>." and "L<b>.", which is
// string order, not numeric order: "L10." < "L2." and "L-1." < "L1.".
func tokenLess(a, b graph.Label) bool {
	if a == b {
		return false
	}
	var ba, bb [24]byte
	ta := append(strconv.AppendInt(ba[:0], int64(a), 10), '.')
	tb := append(strconv.AppendInt(bb[:0], int64(b), 10), '.')
	return bytes.Compare(ta, tb) < 0
}

// canonSearch walks the node orderings that keep the sorted token sequence —
// the permutations within each label cell — and keeps the one with the
// smallest triangle.
type canonSearch struct {
	s       shape
	perm    []int // current ordering: perm[a] is the node at place a
	cellEnd []int
	cur     []uint64 // triangle of perm, packed
	best    []int    // ordering of the smallest triangle so far
	bestTri []uint64
	found   bool
}

// permute fixes places from onwards, trying every node of the place's cell
// that is still free (the free ones sit at from..cellEnd).
func (c *canonSearch) permute(from int) {
	if from == len(c.perm) {
		c.leaf()
		return
	}
	for i := from; i < c.cellEnd[from]; i++ {
		c.perm[from], c.perm[i] = c.perm[i], c.perm[from]
		c.permute(from + 1)
		c.perm[from], c.perm[i] = c.perm[i], c.perm[from]
	}
}

// leaf packs the upper triangle of the current ordering, row by row, and
// keeps it when it is the smallest seen.
func (c *canonSearch) leaf() {
	k := len(c.perm)
	var acc uint64
	n, w := 0, 0
	for a := 0; a < k; a++ {
		row := c.s.row(c.perm[a])
		for b := a + 1; b < k; b++ {
			j := c.perm[b]
			acc = acc<<1 | row[j>>6]>>(uint(j)&63)&1
			if n++; n == 64 {
				c.cur[w], acc, n = acc, 0, 0
				w++
			}
		}
	}
	if n > 0 {
		c.cur[w] = acc
	}
	if c.found {
		smaller := false
		for i, word := range c.cur {
			if word != c.bestTri[i] {
				smaller = word < c.bestTri[i]
				break
			}
		}
		if !smaller {
			return
		}
	}
	c.found = true
	copy(c.best, c.perm)
	copy(c.bestTri, c.cur)
}
