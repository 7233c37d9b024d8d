package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// MNI state (Definition 2.2.8: project the occurrence relation onto each
// pattern node, count distinct) has one shape, and this file is the only one
// that knows it: for each node orbit of Aut(P) a presence mask over a
// snapshot's dense indexes (isomorph.Mask), one bit per vertex.
//
// A row stands for an orbit, not a node, because that is all the streaming
// search delivers and all MNI needs. The search yields one representative f
// per instance (isomorph.Options.Symmetry); the instance's |Aut(P)|
// occurrences are f∘σ, and over them a node j of orbit O takes the images
// f(σ(j)) — the set f(O), whichever occurrence f is. So a representative sets
// (O, f(j)) for every node j, row O holds v exactly when some instance has
// v ∈ f(O), that set is the MNI domain of every node of O alike, and sizes()
// fans the row's size out to them. None of this mentions which occurrence
// represents an instance, which matters because that choice follows the search
// order and the search order follows the snapshot.
//
// A domainTable lives for one complete enumeration of one snapshot and is
// filled by it. The search lends its last depth a prefix at a time
// (isomorph.RunFunc): the n representatives of one run share the prefix's
// images, so adding them sets k-1 bits once and n bits in the last position's
// row, where adding each alone would set n·k; no VertexID is looked at and no
// hash table exists. A from-scratch Context reads its rows' sizes and throws
// the table away; NewDomainContext hands the rows themselves back as the
// domains.
//
// A domainState is the same rows kept alive by a DeltaContext across the
// snapshots it synchronizes with, plus the instance count and each row's size.
// A complete pass fills it (DeltaContext.rebuild copies the pass table's
// masks); after that a delta refresh writes it. Its plus pass sets the bits of
// the instances a batch created. Presence cannot be subtracted, so its minus
// pass only checks that every image of a destroyed instance is in its row and
// records the (row, index) as a suspect; once both passes are in, each distinct
// suspect is re-checked on the new snapshot by a search pinned at the vertex's
// own edges (DeltaContext.recheck), and cleared when no instance maps a node of
// the orbit there. A batch that inserts or removes vertices shifts every dense
// index above the change, so between the two passes every member of every row
// is moved to its vertex's index on the new snapshot (remap).
//
// Every complete pass is such a search, a materialized context's included: its
// one search adds its representatives to a table like any other and also
// keeps them, as the context's instance list.

// rowLayout says which row of a table each pattern node is added to: its
// orbit's.
type rowLayout struct {
	nodes []pattern.NodeID
	rowOf []int // rowOf[i]: the row of nodes[i]; rows are numbered by first node
	rows  int
}

// orbitRows is the layout with one row per node orbit of sym, which must be
// the symmetry of the pattern whose sorted nodes are given.
func orbitRows(nodes []pattern.NodeID, sym *isomorph.Symmetry) rowLayout {
	l := rowLayout{nodes: nodes, rowOf: make([]int, len(nodes)), rows: sym.NumOrbits()}
	for i := range nodes {
		l.rowOf[i] = sym.OrbitOf(i)
	}
	return l
}

// describe names a row for a diagnostic by the first pattern node added to
// it: "node 9", or "the orbit of node 5" when others share the row.
func (l rowLayout) describe(row int) string {
	first, members := -1, 0
	for i, r := range l.rowOf {
		if r == row {
			if first < 0 {
				first = i
			}
			members++
		}
	}
	if members > 1 {
		return fmt.Sprintf("the orbit of node %d", l.nodes[first])
	}
	return fmt.Sprintf("node %d", l.nodes[first])
}

// fanOut returns, aligned with the pattern's nodes, each node's row's entry of
// perRow, as a fresh slice.
func fanOut[T any](l rowLayout, perRow []T) []T {
	out := make([]T, len(l.rowOf))
	for i, r := range l.rowOf {
		out[i] = perRow[r]
	}
	return out
}

// newRows returns the given number of empty presence masks over n dense
// indexes, stretches of one backing array of ⌈n/64⌉ words each, and the
// array.
func newRows(rows, n int) ([]uint64, []isomorph.Mask) {
	words := make([]uint64, rows*((n+63)/64))
	return words, splitRows(words, rows)
}

// splitRows returns words cut into the given number of rows of equal length.
func splitRows(words []uint64, rows int) []isomorph.Mask {
	stride := len(words) / rows
	masks := make([]isomorph.Mask, rows)
	for r := range masks {
		masks[r] = words[r*stride : (r+1)*stride : (r+1)*stride]
	}
	return masks
}

// domainTable is the MNI table one complete pass over a snapshot fills: for
// every row of its layout a presence mask over the snapshot's dense indexes,
// dense index x set in row r when some assignment the pass adds maps a node of
// the row to that vertex. One table is orbits·n/8 bytes, never k·n/8, and
// every worker of the pass owns one.
type domainTable struct {
	rowLayout
	words []uint64
	masks []isomorph.Mask // masks[r]: row r's stretch of words
}

// newDomainTable returns the empty table of layout over a snapshot of n
// vertices.
func newDomainTable(n int, layout rowLayout) domainTable {
	words, masks := newRows(layout.rows, n)
	return domainTable{rowLayout: layout, words: words, masks: masks}
}

// addRun adds one run of leaves lent by the enumeration of t's snapshot
// (isomorph.RunFunc): the n leaves share the prefix's image at every position
// but last, so each of those is set once in its row, and each leaf sets its
// own image in last's row.
//
//gvet:hotpath
func (t *domainTable) addRun(o *isomorph.Occurrence, last int, run []int32) {
	for i, r := range t.rowOf {
		if i != last {
			t.masks[r].Add(o.IndexAt(i))
		}
	}
	row := t.masks[t.rowOf[last]]
	for _, x := range run {
		row.Add(x)
	}
}

// merge adds another worker's table of the same pass into t: the union of
// its masks.
func (t *domainTable) merge(other domainTable) {
	for i, w := range other.words {
		t.words[i] |= w
	}
}

// sizes returns the MNI domain size of every pattern node — the number of
// indexes in its row — aligned with Pattern().Nodes(), as a fresh slice.
func (t *domainTable) sizes() []int {
	perRow := make([]int, t.rows)
	for r, m := range t.masks {
		perRow[r] = m.Count()
	}
	return fanOut(t.rowLayout, perRow)
}

// domains returns the MNI domain of every pattern node, aligned with
// Pattern().Nodes(): its row's mask itself, shared by the nodes of the row,
// which the caller must not modify.
func (t *domainTable) domains() []isomorph.Mask { return fanOut(t.rowLayout, t.masks) }

// domainState is the MNI state a DeltaContext maintains: the live instance
// count and, per node orbit, a presence mask over the dense indexes of the
// snapshot the context is synchronized with, whose size it keeps up to date:
// orbits·⌈n/64⌉ words per tracked pattern at rest, twice that once a batch
// has inserted or removed vertices (remap's spare).
type domainState struct {
	rowLayout
	count int
	words []uint64
	masks []isomorph.Mask
	size  []int // size[r]: the number of indexes in masks[r]
	// spare is the backing array remap last moved the rows out of, kept for
	// the next vertex batch to move them into; nil until the first.
	spare []uint64
}

// newDomainState returns the state of a complete pass: its count and a copy of
// its table's masks, so the table's own masks may be handed out as domains
// while the state changes under later batches.
func newDomainState(a *accumulator) *domainState {
	t := &a.table
	words := slices.Clone(t.words)
	s := &domainState{rowLayout: t.rowLayout, count: a.count, words: words, masks: splitRows(words, t.rows), size: make([]int, t.rows)}
	for r, m := range s.masks {
		s.size[r] = m.Count()
	}
	return s
}

// set puts dense index x into row r.
//
//gvet:hotpath
func (s *domainState) set(r int, x int32) {
	if !s.masks[r].Has(x) {
		s.masks[r].Add(x)
		s.size[r]++
	}
}

// clear takes dense index x, which row r holds, out of the row.
func (s *domainState) clear(r int, x int32) {
	s.masks[r][x>>6] &^= 1 << uint(x&63)
	s.size[r]--
}

// add adds one instance, o any occurrence of it: the count and every image in
// its node's row.
//
//gvet:hotpath
func (s *domainState) add(o *isomorph.Occurrence) {
	s.count++
	for i, r := range s.rowOf {
		s.set(r, o.IndexAt(i))
	}
}

// subtract takes one instance out of the count, o any occurrence of it, and
// appends every image to suspects as (row, index) (suspectKey): whether the
// row still holds it depends on the instances left, which only a re-check can
// tell. An image its row does not hold, or a count below zero, means a
// subtracted instance was never added — the passes of a delta refresh
// disagreed about the old graph — which the construction rules out, so either
// panics.
//
//gvet:hotpath
func (s *domainState) subtract(o *isomorph.Occurrence, suspects []uint64) []uint64 {
	s.uncount()
	for i, r := range s.rowOf {
		x := o.IndexAt(i)
		if !s.masks[r].Has(x) {
			s.missing(r, o.ImageAt(i))
		}
		suspects = append(suspects, suspectKey(r, x))
	}
	return suspects
}

// addVertex adds the instance at dense index x of a one-node pattern.
func (s *domainState) addVertex(x int32) {
	s.count++
	s.set(0, x)
}

// subtractVertex is subtract for the instance at dense index x of snap of a
// one-node pattern.
func (s *domainState) subtractVertex(snap *graph.Snapshot, x int32, suspects []uint64) []uint64 {
	s.uncount()
	if !s.masks[0].Has(x) {
		s.missing(0, snap.ID(x))
	}
	return append(suspects, suspectKey(0, x))
}

// uncount takes one instance out of the count, which must not go below zero.
func (s *domainState) uncount() {
	if s.count--; s.count < 0 {
		panic(fmt.Sprintf("core: the instance count went negative (%d)", s.count))
	}
}

// missing reports a subtracted image its row does not hold, outside
// subtract's hot path.
func (s *domainState) missing(r int, v graph.VertexID) {
	panic(fmt.Sprintf("core: a subtracted instance maps %s to vertex %d, which its domain does not hold", s.describe(r), v))
}

// suspectKey packs row r and dense index x as one uint64, so suspects sort by
// row, then index.
func suspectKey(r int, x int32) uint64 { return uint64(r)<<32 | uint64(uint32(x)) }

// sizes returns the MNI domain size of every pattern node, aligned with
// Pattern().Nodes(), as a fresh slice.
func (s *domainState) sizes() []int { return fanOut(s.rowLayout, s.size) }

// remap moves every row and the given suspects onto the new side of a batch
// that inserted or removed vertices, a snapshot of n vertices, and returns the
// suspects moved. to is the batch's index map (Batch.to): the new index of
// every old one, -1 for a vertex the batch removed, whose bit leaves its row
// and whose suspect is dropped. Each member is set again at its new index in
// the spare backing array, which then becomes the rows' while theirs becomes
// the spare, so a context allocates for a vertex batch only until its spare
// is as large as the rows; the remap costs orbits·⌈n/64⌉ words cleared and
// scanned plus one lookup per member. A nil to leaves both as they are.
func (s *domainState) remap(to []int32, n int, suspects []uint64) []uint64 {
	if to == nil {
		return suspects
	}
	stride := (n + 63) / 64
	words := s.spare[:0]
	if need := s.rows * stride; cap(words) < need {
		words = make([]uint64, need)
	} else {
		words = words[:need]
		clear(words)
	}
	for r, m := range s.masks {
		row := isomorph.Mask(words[r*stride : (r+1)*stride : (r+1)*stride])
		for i, w := range m {
			for ; w != 0; w &= w - 1 {
				if y := to[i<<6|bits.TrailingZeros64(w)]; y >= 0 {
					row.Add(y)
				} else {
					s.size[r]--
				}
			}
		}
		s.masks[r] = row
	}
	s.words, s.spare = words, s.words
	kept := suspects[:0]
	for _, key := range suspects {
		if y := to[uint32(key)]; y >= 0 {
			kept = append(kept, suspectKey(int(key>>32), y))
		}
	}
	return kept
}

// accumulator is what one complete pass is folded into: the number of
// representatives counted, one per instance, and the pass's domain table. It
// takes the search's last depth a prefix at a time (isomorph.RunFunc) and
// retains nothing of a run, which is what lets the enumeration engine lend
// every worker's occurrence and candidate runs instead of allocating them.
// Each enumeration worker owns exactly one, so the hot path takes no locks,
// and the per-worker accumulators are merged once enumeration finishes. (A
// delta pass has no accumulator: deltaPass, delta.go, writes what it counts
// to the maintained state.)
type accumulator struct {
	// The workers' accumulators are allocated one after another, and count is
	// written on every run: the pad keeps it a cache line away from the
	// previous worker's table header, which that worker reads on every run.
	// (Sharing the line costs the two workers of eval-stream 7 % of an op.)
	_     [64]byte
	count int
	table domainTable
}

// run counts a run of representatives sharing one prefix (see addRun).
//
//gvet:hotpath
func (a *accumulator) run(o *isomorph.Occurrence, last int, run []int32) bool {
	a.count += len(run)
	a.table.addRun(o, last, run)
	return true
}

// instanceCounter is what the passes of one context share: the pattern, its
// symmetry — Aut(P) computed once — and the orbit-row layout every pass table
// and the maintained state are laid out in.
type instanceCounter struct {
	p   *pattern.Pattern
	sym *isomorph.Symmetry
	rowLayout
}

func newInstanceCounter(p *pattern.Pattern) *instanceCounter {
	sym := isomorph.NewSymmetry(p)
	return &instanceCounter{p: p, sym: sym, rowLayout: orbitRows(p.Nodes(), sym)}
}

// occurrences returns the number of occurrences the given number of
// instances stands for: |Aut(P)| each.
func (c *instanceCounter) occurrences(instances int) int { return instances * c.sym.Order() }

// accumulate streams one representative per instance of the pattern over the
// whole of snap, confined to masks (isomorph.Options.Masks; nil for none),
// into one whole-snapshot accumulator per enumeration worker and returns them
// merged; an empty accumulator when the search has no plan (the pattern
// cannot occur at all). With list set the same search
// also copies every representative out and returns the instances as
// isomorph.ListSnapshot lists them, each its smallest automorphic copy as a
// tuple of dense indexes in snap, in canonical order; without it nothing is
// kept.
func (c *instanceCounter) accumulate(snap *graph.Snapshot, parallelism int, masks []isomorph.Mask, list bool) (*accumulator, []int32) {
	var accs []*accumulator
	enum := isomorph.Options{Parallelism: parallelism, Symmetry: c.sym, Masks: masks}
	newRuns := func(int) isomorph.RunFunc {
		a := &accumulator{table: newDomainTable(snap.NumVertices(), c.rowLayout)}
		accs = append(accs, a)
		return a.run
	}
	var tuples []int32
	if list {
		tuples = isomorph.ListSnapshot(snap, c.p, enum, newRuns)
	} else {
		isomorph.EnumerateSnapshotRuns(snap, c.p, enum, newRuns)
	}
	if len(accs) == 0 {
		newRuns(0)
	}
	return mergeWorkers(accs), tuples
}

// mergeWorkers merges per-worker accumulators, at least one, into the first
// of them, which saves the sequential path a copy of its only table.
func mergeWorkers(accs []*accumulator) *accumulator {
	all := accs[0]
	for _, b := range accs[1:] {
		all.count += b.count
		all.table.merge(b.table)
	}
	return all
}
