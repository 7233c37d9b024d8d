package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// MNI state (Definition 2.2.8: project the occurrence relation onto each
// pattern node, count distinct) has one layout per lifetime, and this file is
// the only one that knows either.
//
// Both layouts keep one row per node orbit of Aut(P), not one per node,
// because that is all the streaming search delivers and all MNI needs. The
// search yields one representative f per instance (isomorph.Options.Symmetry);
// the instance's |Aut(P)| occurrences are f∘σ, and over them a node j of orbit
// O takes the images f(σ(j)) — the set f(O), whichever occurrence f is. So a
// representative adds (O, f(j)) for every node j, row O holds v exactly when
// some instance has v ∈ f(O), that set is the MNI domain of every node of O
// alike, and sizes() fans the row's size out to them. Where a table counts,
// the counter of (O, v) is the number of such instances. None of this
// mentions which occurrence represents an instance, which matters because
// that choice follows the search order and the search order follows the
// snapshot: the plus and minus passes of a delta refresh may represent one
// instance by different occurrences and still add and subtract the same
// entries.
//
// A domainTable lives for one complete enumeration of one snapshot, so it is
// keyed the way the search is: by the snapshot's dense vertex indexes, which
// is what an occurrence is found in and lent as (Occurrence.IndexAt). It is
// always the whole snapshot wide: a row is a presence mask, one bit per
// vertex, orbits·n/8 bytes a table. MNI asks only which vertices a row
// covers, so that is all a table keeps, unless its pass feeds a domainState
// and needs multiplicities too (see below). The search lends its last depth a
// prefix at a time (isomorph.RunFunc): the n representatives of one run share
// the prefix's images, so adding them sets k-1 bits once and n bits in the
// last position's row, where adding each alone would set n·k; no VertexID is
// looked at and no hash table exists. A from-scratch Context reads its rows'
// sizes and throws the table away; NewDomainContext hands the rows themselves
// back as the domains.
//
// A domainState lives as long as a DeltaContext, across snapshots whose dense
// indexes shift with every vertex insert or removal, so it is keyed by
// VertexID, which means the same vertex in all of them; and it keeps exact
// multiplicities (a refcount per projected tuple, Berkholz et al., PAPERS.md),
// because a delta refresh subtracts and must tell the last instance through
// a vertex from one of many. It holds only the vertices some instance maps
// to, not a counter per data vertex per tracked pattern.
//
// The state is written two ways, by what the writer has in hand. A complete
// enumeration has millions of representatives and one table of them, which
// for this one reader also counts (DeltaContext.rebuild): its table carries
// an int32 counter per (row, vertex) beside the masks, and domainState.fold
// turns the counters of the rows' members into entries, the one point where a
// dense index becomes a VertexID. A delta pass has the few instances a batch
// changed: it counts some twenty per context on the benchmark's refreshes,
// but writes only those that use a mutated vertex or edge (deltaPass.yield),
// fewer than one per context. A table to carry them
// would cost its width to allocate and again to scan: domainState.apply adds
// or subtracts each such representative as it arrives, deriving the k
// VertexIDs it keys by from the lent occurrence's dense indexes and the
// snapshot the pass searched — the one point on that path where an index
// becomes a VertexID.
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

// domainTable is the MNI table one complete pass over a snapshot fills: for
// every row of its layout a presence mask over the snapshot's dense indexes
// (isomorph.Mask), dense index x set in row r when some assignment the pass
// adds maps a node of the row to that vertex. The rows are stretches of one
// backing array of ⌈n/64⌉ words each, so one table is orbits·n/8 bytes, never
// k·n/8, and every worker of the pass owns one.
//
// A pass that feeds a domainState (DeltaContext.rebuild, the one reader of
// multiplicities) also needs how many assignments map there: its table has a
// run of int32 counters per row too, row r at counts[r*width:(r+1)*width],
// and the counter of x at position x. Every other table leaves counts nil and
// never counts.
type domainTable struct {
	rowLayout
	snap   *graph.Snapshot
	width  int
	words  []uint64
	masks  []isomorph.Mask // masks[r]: row r's stretch of words
	counts []int32
}

// newDomainTable returns the empty table of layout over snap, with counters
// when counted is set.
func newDomainTable(snap *graph.Snapshot, layout rowLayout, counted bool) domainTable {
	width := snap.NumVertices()
	stride := (width + 63) / 64
	t := domainTable{rowLayout: layout, snap: snap, width: width, words: make([]uint64, layout.rows*stride), masks: make([]isomorph.Mask, layout.rows)}
	for r := range t.masks {
		t.masks[r] = t.words[r*stride : (r+1)*stride : (r+1)*stride]
	}
	if counted {
		t.counts = make([]int32, layout.rows*width)
	}
	return t
}

// addRun adds one run of leaves lent by the enumeration of t's snapshot
// (isomorph.RunFunc): the n leaves share the prefix's image at every position
// but last, so each of those is added once, n at a time, to its row, and each
// leaf adds its own image to last's row — a bit set in the row's mask, and a
// counter bumped first on a counted table.
//
//gvet:hotpath
func (t *domainTable) addRun(o *isomorph.Occurrence, last int, run []int32) {
	n := int32(len(run))
	for i, r := range t.rowOf {
		if i != last {
			t.add(r, o.IndexAt(i), n)
		}
	}
	r := t.rowOf[last]
	if t.counts != nil {
		for _, x := range run {
			t.count(r, x, 1)
		}
	}
	row := t.masks[r]
	for _, x := range run {
		row.Add(x)
	}
}

// add records n assignments of a node of row r to dense index x: it sets x in
// the row's mask and, on a counted table, adds n to the counter of (r, x).
//
//gvet:hotpath
func (t *domainTable) add(r int, x, n int32) {
	if t.counts != nil {
		t.count(r, x, n)
	}
	t.masks[r].Add(x)
}

// count adds n to the counter of (row r, dense index x).
//
//gvet:hotpath
func (t *domainTable) count(r int, x, n int32) {
	c := &t.counts[r*t.width+int(x)]
	if *c > math.MaxInt32-n {
		t.overflow(r, int(x))
	}
	*c += n
}

// overflow reports a counter about to pass 2^31-1. A hub reaches that in
// minutes of emits, so the counter must not wrap silently into "absent".
func (t *domainTable) overflow(r, x int) {
	panic(fmt.Sprintf("core: more than %d counted assignments map %s to vertex %d; the pass table's counters are 32 bits wide", math.MaxInt32, t.describe(r), t.snap.ID(int32(x))))
}

// counters returns row r's counters, one per dense index, on a counted table.
func (t *domainTable) counters(r int) []int32 { return t.counts[r*t.width : (r+1)*t.width] }

// merge adds another worker's table of the same pass into t: the union of
// its masks and, on counted tables, the sum of its counters.
func (t *domainTable) merge(other domainTable) {
	for i, w := range other.words {
		t.words[i] |= w
	}
	for i, c := range other.counts {
		if c > math.MaxInt32-t.counts[i] {
			t.overflow(i/t.width, i%t.width)
		}
		t.counts[i] += c
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
// count and, per node orbit, a refcount for every data vertex at least one
// instance maps a node of the orbit to (an entry exists only while its
// refcount is positive, so the MNI domain size of the orbit's nodes is the
// length of its row). It is the only VertexID-keyed table in the package:
// orbits·|domain| refcounts per tracked pattern at rest.
type domainState struct {
	rowLayout
	count   int
	entries []map[graph.VertexID]int
	// ids is apply's buffer for the VertexIDs of the instance in hand, one per
	// pattern node.
	ids []graph.VertexID
}

func newDomainState(layout rowLayout) *domainState {
	s := &domainState{rowLayout: layout, entries: make([]map[graph.VertexID]int, layout.rows), ids: make([]graph.VertexID, len(layout.nodes))}
	for r := range s.entries {
		s.entries[r] = make(map[graph.VertexID]int)
	}
	return s
}

// fold adds a complete pass's count and counters into s, translating every
// counted dense index to the VertexID it stands for in the pass's snapshot.
// The pass must have counted (accumulate's counted) into s's own layout: fold
// reads the counters where the table's masks say and nowhere else, and
// replaces an empty row by a map sized for its domain, so filling it never
// grows it.
func (s *domainState) fold(a *accumulator) {
	s.count += a.count
	t := &a.table
	for r, row := range s.entries {
		mask := t.masks[r]
		if len(row) == 0 {
			row = make(map[graph.VertexID]int, mask.Count())
			s.entries[r] = row
		}
		counters := t.counters(r)
		for w, word := range mask {
			for ; word != 0; word &= word - 1 {
				x := int32(w*64 + bits.TrailingZeros64(word))
				row[t.snap.ID(x)] += int(counters[x])
			}
		}
	}
}

// apply adds sign (+1 or -1) times one instance into s: the count and, for
// every pattern node, the refcount of the node's image in the node's row, an
// entry deleted when it reaches zero. o is any occurrence of the instance,
// read by its VertexIDs. A negative refcount means a subtracted instance was
// never added — the plus and minus passes of a delta refresh disagreed about
// the old graph — which the construction rules out, so it panics. (Applying
// the plus pass first keeps every refcount non-negative in transit as well.)
//
// A lent occurrence derives each VertexID from its snapshot, so all k are
// read in one loop before the first map update: the loads are independent
// and overlap, where translating inside the update loop would chain each
// one into its hash lookup.
//
//gvet:hotpath
func (s *domainState) apply(o *isomorph.Occurrence, sign int) {
	ids := s.ids
	for i := range ids {
		ids[i] = o.ImageAt(i)
	}
	s.applyIDs(sign)
}

// applyVertex adds sign times the instance of a one-node pattern at vertex v
// into s.
func (s *domainState) applyVertex(v graph.VertexID, sign int) {
	s.ids[0] = v
	s.applyIDs(sign)
}

// applyIDs adds sign times the instance whose images are in s.ids into s.
//
//gvet:hotpath
func (s *domainState) applyIDs(sign int) {
	s.count += sign
	ids := s.ids
	for i, r := range s.rowOf {
		row, v := s.entries[r], ids[i]
		switch next := row[v] + sign; {
		case next > 0:
			row[v] = next
		case next == 0:
			delete(row, v)
		default:
			s.negative(r, v, next)
		}
	}
}

// negative reports a refcount below zero, outside apply's hot path.
func (s *domainState) negative(r int, v graph.VertexID, next int) {
	panic(fmt.Sprintf("core: domain refcount for %s vertex %d went negative (%d)", s.describe(r), v, next))
}

// sizes returns the MNI domain size of every pattern node, aligned with
// Pattern().Nodes(), as a fresh slice.
func (s *domainState) sizes() []int {
	perRow := make([]int, s.rows)
	for r, row := range s.entries {
		perRow[r] = len(row)
	}
	return fanOut(s.rowLayout, perRow)
}

// accumulator is what one complete pass is folded into: the number of
// representatives counted, one per instance, and the pass's domain table. It
// takes the search's last depth a prefix at a time (isomorph.RunFunc) and
// retains nothing of a run, which is what lets the enumeration engine lend
// every worker's occurrence and candidate runs instead of allocating them.
// Each enumeration worker owns exactly one, so the hot path takes no locks,
// and the per-worker accumulators are merged once enumeration finishes. (A
// delta pass has no accumulator: deltaPass, delta.go, applies
// what it counts to the maintained state.)
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
// cannot occur at all). Its table has counters only when counted is set, for
// a caller that folds it into a domainState. With list set the same search
// also copies every representative out and returns the instances as
// isomorph.ListSnapshot lists them, each its smallest automorphic copy as a
// tuple of dense indexes in snap, in canonical order; without it nothing is
// kept.
func (c *instanceCounter) accumulate(snap *graph.Snapshot, parallelism int, masks []isomorph.Mask, counted, list bool) (*accumulator, []int32) {
	var accs []*accumulator
	enum := isomorph.Options{Parallelism: parallelism, Symmetry: c.sym, Masks: masks}
	newRuns := func(int) isomorph.RunFunc {
		a := &accumulator{table: newDomainTable(snap, c.rowLayout, counted)}
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
