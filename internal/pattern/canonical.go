package pattern

import (
	"bytes"
	"slices"
	"strconv"
	"strings"

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
func (p *Pattern) CanonicalCode() string { return p.canon().code }

// CanonicalOrder returns the node ordering CanonicalCode is written in:
// element a is the position, in Nodes(), of the node at canonical place a.
// Two isomorphic patterns meet place by place — place a of one and place a of
// the other carry one label, and places are adjacent in one exactly when they
// are in the other — so the places name a pattern's nodes independently of
// its numbering. The order is cached with the code; the slice is fresh.
func (p *Pattern) CanonicalOrder() []int { return slices.Clone(p.canon().order) }

// PlaceOrbit returns the orbit of canonical place a (see CanonicalOrder)
// under the pattern's automorphisms: the smallest place an automorphism maps
// a to. Places of one orbit carry one label and sit alike in the pattern.
// The orbits are found with the code and cached.
func (p *Pattern) PlaceOrbit(a int) int { return p.canon().orbits[a] }

// PairOrbit returns the orbit of the pair of distinct canonical places a and
// b under the pattern's automorphisms: the smallest index b'(b'-1)/2 + a',
// a' < b', of a pair {a', b'} an automorphism maps {a, b} to. It lies in
// [0, k(k-1)/2) for a k-node pattern, and pairs of one orbit are both edges
// or both not.
func (p *Pattern) PairOrbit(a, b int) int { return p.canon().pairOrbit(a, b) }

// canon returns the pattern's canonical form, computing it on first use.
// Racing first calls compute equal forms, so whichever pointer lands is
// right.
func (p *Pattern) canon() *form {
	if f := p.canonical.Load(); f != nil {
		return f
	}
	f := p.shape.canonicalForm(nil)
	p.canonical.Store(f)
	return f
}

// IsIsomorphicTo reports whether p and q are isomorphic labeled graphs.
func (p *Pattern) IsIsomorphicTo(q *Pattern) bool {
	if p.Size() != q.Size() || p.NumEdges() != q.NumEdges() {
		return false
	}
	return p.CanonicalCode() == q.CanonicalCode()
}

// form is a shape's canonical form: its code, the ordering it is written in
// and the orbits of places and of place pairs under its automorphisms. It
// keeps the orbits, not the group: a one-label star of k nodes has (k-1)!
// automorphisms but k + k(k-1)/2 orbit entries.
type form struct {
	code string
	// order[a] is the node at place a; places[n] is the place of node n.
	order, places []int
	// orbits[a] is PlaceOrbit(a); pairs[pairIndex(a, b)] is PairOrbit(a, b).
	orbits, pairs []int
	// small holds the slices of a shape of up to six nodes, so they come
	// with the form's own allocation.
	small [33]int
}

// pairIndex numbers the pair of distinct places or nodes a and b: the
// pairs {a', b'}, a' < b', of a k-node shape are numbered 0..k(k-1)/2-1 in
// order of b', then a'.
func pairIndex(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return b*(b-1)/2 + a
}

// pairOrbit is PairOrbit.
func (f *form) pairOrbit(a, b int) int { return f.pairs[pairIndex(a, b)] }

// canonicalForm computes the canonical form of a shape without trying all k!
// node orders. A token ends in '.' and holds no other '.', so no token is a
// prefix of another: the smallest token sequence is the tokens in sorted
// order, and every ordering that attains it differs from the sorted one only
// by permuting nodes that carry the same label. All such orderings share the
// token prefix, so the minimum is decided by the triangle alone — compared
// as packed words, most significant bit first, and rendered once at the end.
// Two orderings that give one triangle differ by an automorphism, so each
// tie the search meets merges the orbits it shows (canonSearch.tie); every
// automorphism is shown by the ordering it maps the canonical one to.
//
// c, when non-nil, lends the search its buffers (newCanonSearch), so a
// caller computing many forms in a row allocates only what each form keeps.
func (s shape) canonicalForm(c *canonSearch) *form {
	k := len(s.labels)
	pairs := k * (k - 1) / 2
	if c == nil || len(c.ints) < 3*k {
		c = newCanonSearch(k)
	}
	words := triWords(k)
	c.s, c.found = s, false
	c.perm, c.cellEnd, c.best = c.ints[:k:k], c.ints[k:2*k:2*k], c.ints[2*k:3*k:3*k]
	c.classes, c.smallest = c.classes[:k+pairs], c.smallest[:k+pairs]
	for i := range c.classes {
		c.classes[i] = i
	}
	c.cur, c.bestTri = c.tri[:words:words], c.tri[words:2*words:2*words]
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
	c.permute(0)

	f := &form{}
	ints := f.small[:]
	if 3*k+pairs > len(ints) {
		ints = make([]int, 3*k+pairs)
	}
	f.order, f.places = ints[:k:k], ints[k:2*k:2*k]
	f.orbits, f.pairs = ints[2*k:3*k:3*k], ints[3*k:3*k+pairs:3*k+pairs]
	copy(f.order, c.best)
	for a, n := range f.order {
		f.places[n] = a
	}
	// A class of nodes or of node pairs is an orbit; it is named by the
	// smallest place, or place pair index, of its members, kept at its root.
	for i := range c.smallest {
		c.smallest[i] = k + pairs
	}
	for m := range k {
		r := c.root(m)
		c.smallest[r] = min(c.smallest[r], f.places[m])
		for n := range m {
			r := c.root(k + pairIndex(n, m))
			c.smallest[r] = min(c.smallest[r], pairIndex(f.places[n], f.places[m]))
		}
	}
	for a, n := range f.order {
		f.orbits[a] = c.smallest[c.root(n)]
		for b, m := range f.order[:a] {
			f.pairs[pairIndex(b, a)] = c.smallest[c.root(k+pairIndex(n, m))]
		}
	}

	var code strings.Builder
	code.Grow(4*k + k*(k-1)/2)
	var num [20]byte
	for _, i := range c.best {
		code.WriteByte('L')
		code.Write(strconv.AppendInt(num[:0], int64(s.labels[i]), 10))
		code.WriteByte('.')
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if s.has(c.best[a], c.best[b]) {
				code.WriteByte('1')
			} else {
				code.WriteByte('0')
			}
		}
	}
	f.code = code.String()
	return f
}

// newCanonSearch returns a search with buffers for shapes of up to k nodes.
func newCanonSearch(k int) *canonSearch {
	classes := make([]int, 2*(k+k*(k-1)/2))
	n := len(classes) / 2
	return &canonSearch{
		ints:     make([]int, 3*k),
		tri:      make([]uint64, 2*triWords(k)),
		classes:  classes[:n:n],
		smallest: classes[n:],
	}
}

// triWords is the number of words the upper triangle of a k-node shape packs
// into.
func triWords(k int) int { return (k*(k-1)/2 + 63) / 64 }

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
// the permutations within each label cell — keeps the one with the smallest
// triangle and merges the orbits every tie shows.
type canonSearch struct {
	s       shape
	perm    []int // current ordering: perm[a] is the node at place a
	cellEnd []int
	cur     []uint64 // triangle of perm, packed
	best    []int    // ordering of the smallest triangle so far
	bestTri []uint64
	ints    []int    // perm, cellEnd and best, back to back
	tri     []uint64 // cur and bestTri, back to back
	// classes is a union-find forest over the k nodes, then the node pairs
	// by pairIndex, offset by k: the orbits the ties have shown so far.
	classes []int
	// smallest names each orbit at its root once the search is done.
	smallest []int
	found    bool
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
// keeps it when it is the smallest seen, or records it as a tie when it
// equals the smallest.
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
		i := 0
		for i < len(c.cur) && c.cur[i] == c.bestTri[i] {
			i++
		}
		if i == len(c.cur) {
			c.tie()
			return
		}
		if c.cur[i] > c.bestTri[i] {
			return
		}
	}
	c.found = true
	copy(c.best, c.perm)
	copy(c.bestTri, c.cur)
}

// tie merges the orbits shown by the current ordering, whose triangle equals
// best's: the map taking best[a] to perm[a] keeps labels (both orderings
// keep the cells) and adjacency (they give one triangle), so it is an
// automorphism, whichever ordering ends up canonical.
func (c *canonSearch) tie() {
	k := len(c.perm)
	for a, n := range c.best {
		c.union(n, c.perm[a])
		for b, m := range c.best[:a] {
			c.union(k+pairIndex(m, n), k+pairIndex(c.perm[b], c.perm[a]))
		}
	}
}

// root returns the root of i's class, halving the path on the way.
func (c *canonSearch) root(i int) int {
	for c.classes[i] != i {
		c.classes[i] = c.classes[c.classes[i]]
		i = c.classes[i]
	}
	return i
}

// union merges the classes of i and j.
func (c *canonSearch) union(i, j int) {
	if ri, rj := c.root(i), c.root(j); ri != rj {
		c.classes[max(ri, rj)] = min(ri, rj)
	}
}
