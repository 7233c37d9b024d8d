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
// representative adds one to (O, f(j)) for every node j, the counter of
// (O, v) is the number of instances with v ∈ f(O), the non-zero counters of
// row O are the MNI domain of every node of O alike, and sizes() fans the
// row's size out to them. None of this mentions which occurrence represents
// an instance, which matters because that choice follows the search order
// and the search order follows the snapshot: the plus and minus passes of a
// delta refresh may represent one instance by different occurrences and
// still add and subtract the same entries.
//
// A domainTable lives for one complete enumeration of one snapshot, so it is
// keyed the way the search is: by the snapshot's dense vertex indexes, which
// is what an occurrence is found in and lent as (Occurrence.IndexAt). It is
// always the whole snapshot wide. The search lends its last depth a prefix at
// a time (isomorph.RunFunc): the n representatives of one run share the
// prefix's images, so counting them is k-1 additions of n and n increments of
// the last position's row, where counting each alone would be n·k
// increments; no VertexID is looked at and no hash table exists. A
// from-scratch Context reads "is the counter non-zero" and throws the table
// away.
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
// enumeration has millions of representatives and one table of them:
// domainState.fold turns the table's non-zero counters into entries, the one
// point where a dense index becomes a VertexID. A delta pass has the few
// instances a batch changed: it counts some twenty per context on the
// benchmark's refreshes, but writes only those that use a mutated vertex or
// edge (deltaPass.yield), fewer than one per context. A table to carry them
// would cost its width to allocate and again to scan: domainState.apply adds
// or subtracts each such representative as it arrives, deriving the k
// VertexIDs it keys by from the lent occurrence's dense indexes and the
// snapshot the pass searched — the one point on that path where an index
// becomes a VertexID.
//
// Every complete pass is such a search, a materialized context's included: its
// one search counts its representatives into a table like any other and also
// keeps them, as the context's instance list.

// rowLayout says which row of a table each pattern node counts into: its
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

// describe names a row for a diagnostic by the first pattern node counting
// into it: "node 9", or "the orbit of node 5" when others share the row.
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
// every row of its layout a run of counters, one per vertex of the snapshot,
// row r at counts[r*width:(r+1)*width] and the counter of dense index x at
// position x, each the number of counted assignments that map a node of the
// row to that vertex. One table is 4·orbits·n bytes, never 4·k·n, and every
// worker of the pass owns one.
type domainTable struct {
	rowLayout
	snap   *graph.Snapshot
	width  int
	counts []int32
}

func newDomainTable(snap *graph.Snapshot, layout rowLayout) domainTable {
	width := snap.NumVertices()
	return domainTable{rowLayout: layout, snap: snap, width: width, counts: make([]int32, layout.rows*width)}
}

// addRun counts one run of leaves lent by the enumeration of t's snapshot
// (isomorph.RunFunc): the n leaves share the prefix's image at every position
// but last, so each of those counts n at once into its row, and each leaf
// counts its own image into last's row.
//
//gvet:hotpath
func (t *domainTable) addRun(o *isomorph.Occurrence, last int, run []int32) {
	n := int32(len(run))
	for i, r := range t.rowOf {
		if i != last {
			t.bumpBy(r, o.IndexAt(i), n)
		}
	}
	r := t.rowOf[last]
	for _, x := range run {
		t.bump(r, x)
	}
}

// bump increments the counter of (row r, dense index x).
//
//gvet:hotpath
func (t *domainTable) bump(r int, x int32) {
	c := &t.counts[r*t.width+int(x)]
	if *c == math.MaxInt32 {
		t.overflow(r, int(x))
	}
	*c++
}

// bumpBy adds n to the counter of (row r, dense index x).
//
//gvet:hotpath
func (t *domainTable) bumpBy(r int, x, n int32) {
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

// row returns row r's counters, one per dense index.
func (t *domainTable) row(r int) []int32 { return t.counts[r*t.width : (r+1)*t.width] }

// merge adds the counters of another worker's table of the same pass into t.
func (t *domainTable) merge(other domainTable) {
	for r := 0; r < t.rows; r++ {
		row := t.row(r)
		for x, c := range other.row(r) {
			if c > math.MaxInt32-row[x] {
				t.overflow(r, x)
			}
			row[x] += c
		}
	}
}

// sizes returns the MNI domain size of every pattern node — the number of
// non-zero counters of its row — aligned with Pattern().Nodes(), as a fresh
// slice. A table with no counters (mergeWorkers' answer when the pattern
// cannot occur) has zero-width rows and reads as all zeros.
func (t *domainTable) sizes() []int {
	perRow := make([]int, t.rows)
	for r := range perRow {
		for _, c := range t.row(r) {
			if c != 0 {
				perRow[r]++
			}
		}
	}
	return fanOut(t.rowLayout, perRow)
}

// rowDomains returns the MNI domain of every row — its non-zero counters — as
// a mask over the dense indexes of a snapshot of n vertices. A table with no
// counters reads as all empty.
func (t *domainTable) rowDomains(n int) []isomorph.Mask {
	perRow := make([]isomorph.Mask, t.rows)
	for r := range perRow {
		m := isomorph.NewMask(n)
		for x, c := range t.row(r) {
			if c != 0 {
				m.Add(int32(x))
			}
		}
		perRow[r] = m
	}
	return perRow
}

// domains returns rowDomains fanned out to the pattern's nodes, aligned with
// Pattern().Nodes(); the nodes of one row share one mask.
func (t *domainTable) domains(n int) []isomorph.Mask { return fanOut(t.rowLayout, t.rowDomains(n)) }

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
// non-zero counter's dense index to the VertexID it stands for in the pass's
// snapshot. The pass must have counted into s's own layout, and rows must be
// its table's rowDomains: fold reads the counters where they say and nowhere
// else, and replaces an empty row by a map sized for its domain, so filling it
// never grows it.
func (s *domainState) fold(a *accumulator, rows []isomorph.Mask) {
	s.count += a.count
	t := &a.table
	for r, row := range s.entries {
		if len(row) == 0 {
			row = make(map[graph.VertexID]int, rows[r].Count())
			s.entries[r] = row
		}
		counters := t.row(r)
		for w, word := range rows[r] {
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
// merged; the empty accumulator when the search has no plan (the pattern
// cannot occur at all). With list set the same search also copies every
// representative out and returns the instances as isomorph.ListSnapshot lists
// them, each as its smallest automorphic copy, in canonical order, with their
// dense indexes in snap; without it nothing is kept.
func (c *instanceCounter) accumulate(snap *graph.Snapshot, parallelism int, masks []isomorph.Mask, list bool) (*accumulator, []*isomorph.Occurrence, []int32) {
	var accs []*accumulator
	enum := isomorph.Options{Parallelism: parallelism, Symmetry: c.sym, Masks: masks}
	newRuns := func(int) isomorph.RunFunc {
		a := &accumulator{table: newDomainTable(snap, c.rowLayout)}
		accs = append(accs, a)
		return a.run
	}
	var instances []*isomorph.Occurrence
	var indexes []int32
	if list {
		instances, indexes = isomorph.ListSnapshot(snap, c.p, enum, newRuns)
	} else {
		isomorph.EnumerateSnapshotRuns(snap, c.p, enum, newRuns)
	}
	return mergeWorkers(c.rowLayout, accs), instances, indexes
}

// mergeWorkers merges per-worker accumulators into the first of them, which
// saves the sequential path a copy of its only table. No workers at all (the
// pattern cannot occur) merge to an accumulator with no counters.
func mergeWorkers(layout rowLayout, accs []*accumulator) *accumulator {
	if len(accs) == 0 {
		return &accumulator{table: domainTable{rowLayout: layout}}
	}
	all := accs[0]
	for _, b := range accs[1:] {
		all.count += b.count
		all.table.merge(b.table)
	}
	return all
}
