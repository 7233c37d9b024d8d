package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// MNI state (Definition 2.2.8: project the occurrence relation onto each
// pattern node, count distinct) has one layout per lifetime, and this file is
// the only one that knows either.
//
// A domainTable lives for one enumeration pass over one snapshot, so it is
// keyed the way the search is: by the snapshot's dense vertex indexes, which
// is what an occurrence is found in and lent as (Occurrence.IndexAt). Counting
// an occurrence is k array increments; no VertexID is looked at and no hash
// table exists. A from-scratch Context reads "is the counter non-zero" and
// throws the table away.
//
// A domainState lives as long as a DeltaContext, across snapshots whose dense
// indexes shift with every vertex insert or removal, so it is keyed by
// VertexID, which means the same vertex in all of them; and it keeps exact
// multiplicities (a refcount per projected tuple, Berkholz et al., PAPERS.md),
// because a delta refresh subtracts and must tell the last occurrence through
// a vertex from one of many. It holds only the vertices some occurrence maps
// to, not a counter per data vertex per tracked pattern.
//
// domainState.fold is the single place the first becomes the second — the
// one point where a dense index is turned into a VertexID.

// domainTable is the MNI table one enumeration pass fills: for every pattern
// node a row of counters over the pass's vertex universe, row i at
// counts[i*width:(i+1)*width], each the number of counted occurrences that
// map nodes[i] to that vertex.
//
// The universe of a complete enumeration is the whole snapshot (universe nil,
// the counter of dense index x at position x); the universe of a
// root-restricted delta pass is its sorted mutation ball (position by binary
// search), which by construction holds every image of every occurrence the
// pass counts. One table is 4·k·width bytes — 4·k·n for a complete pass,
// 4·k·|ball| for a restricted one, never 4·k·n — and every enumeration worker
// owns one.
type domainTable struct {
	snap     *graph.Snapshot
	nodes    []pattern.NodeID
	universe []int32
	width    int
	counts   []int32
}

func newDomainTable(snap *graph.Snapshot, nodes []pattern.NodeID, universe []int32) domainTable {
	width := snap.NumVertices()
	if universe != nil {
		width = len(universe)
	}
	return domainTable{snap: snap, nodes: nodes, universe: universe, width: width, counts: make([]int32, len(nodes)*width)}
}

// add counts one occurrence lent by the enumeration of t's snapshot into
// every row.
//
//gvet:hotpath
func (t *domainTable) add(o *isomorph.Occurrence) {
	for i := range t.nodes {
		t.bump(i, o.IndexAt(i))
	}
}

// addListed counts one occurrence of a list enumerated over t's snapshot
// (isomorph.EnumerateSnapshot): a listed occurrence has outlived its index
// space, so each image is translated back, log n apiece — against the sort
// and the hyperedge a materialized build already pays per occurrence.
func (t *domainTable) addListed(o *isomorph.Occurrence) {
	for i := range t.nodes {
		x, ok := t.snap.IndexOf(o.ImageAt(i))
		if !ok {
			panic(fmt.Sprintf("core: occurrence image %d of pattern node %d is not a vertex of the snapshot it was enumerated on", o.ImageAt(i), t.nodes[i]))
		}
		t.bump(i, x)
	}
}

// bump increments the counter of (pattern node i, dense index x).
//
//gvet:hotpath
func (t *domainTable) bump(i int, x int32) {
	pos := int(x)
	if t.universe != nil {
		pos = t.position(i, x)
	}
	c := &t.counts[i*t.width+pos]
	if *c == math.MaxInt32 {
		t.overflow(i, pos)
	}
	*c++
}

// position returns where dense index x sits in a restricted universe. A miss
// means an occurrence touching a dirty vertex has an image outside the
// mutation ball, which the ball's radius (the pattern's diameter) rules out,
// so it panics.
func (t *domainTable) position(i int, x int32) int {
	pos, ok := slices.BinarySearch(t.universe, x)
	if !ok {
		panic(fmt.Sprintf("core: image %d of pattern node %d lies outside the pass's %d-vertex mutation ball", t.snap.ID(x), t.nodes[i], len(t.universe)))
	}
	return pos
}

// overflow reports a counter about to pass 2^31-1. A hub reaches that in
// minutes of emits, so the counter must not wrap silently into "absent".
func (t *domainTable) overflow(i, pos int) {
	panic(fmt.Sprintf("core: more than %d occurrences map pattern node %d to vertex %d; the pass table's counters are 32 bits wide", math.MaxInt32, t.nodes[i], t.snap.ID(t.index(pos))))
}

// row returns pattern node i's counters, one per universe position.
func (t *domainTable) row(i int) []int32 { return t.counts[i*t.width : (i+1)*t.width] }

// index returns the dense index of universe position pos.
func (t *domainTable) index(pos int) int32 {
	if t.universe != nil {
		return t.universe[pos]
	}
	return int32(pos)
}

// merge adds the counters of another worker's table of the same pass into t.
func (t *domainTable) merge(other domainTable) {
	for i := range t.nodes {
		row := t.row(i)
		for pos, c := range other.row(i) {
			if c > math.MaxInt32-row[pos] {
				t.overflow(i, pos)
			}
			row[pos] += c
		}
	}
}

// sizes returns the MNI domain size of every pattern node — the number of
// non-zero counters of its row — aligned with Pattern().Nodes(), as a fresh
// slice. A table with no counters (mergeWorkers' answer when the pattern
// cannot occur) has zero-width rows and reads as all zeros.
func (t *domainTable) sizes() []int {
	sizes := make([]int, len(t.nodes))
	for i := range sizes {
		for _, c := range t.row(i) {
			if c != 0 {
				sizes[i]++
			}
		}
	}
	return sizes
}

// domainState is the MNI state a DeltaContext maintains: the live occurrence
// count and, per pattern node, a refcount for every data vertex at least one
// counted occurrence maps the node to (an entry exists only while its
// refcount is positive, so a node's MNI domain size is the length of its
// row). It is the only VertexID-keyed table in the package.
type domainState struct {
	count int
	nodes []pattern.NodeID
	rows  []map[graph.VertexID]int
}

func newDomainState(nodes []pattern.NodeID) *domainState {
	s := &domainState{nodes: nodes, rows: make([]map[graph.VertexID]int, len(nodes))}
	for i := range s.rows {
		s.rows[i] = make(map[graph.VertexID]int)
	}
	return s
}

// fold adds sign times a pass's count and counters into s, translating every
// non-zero counter's universe position to the VertexID it stands for in the
// pass's snapshot, and deletes entries that reach zero. A negative refcount
// means a subtracted occurrence was never added — the plus and minus passes
// of a delta refresh disagreed about the old graph — which the construction
// rules out, so it panics. (Folding the plus pass first keeps every refcount
// non-negative in transit as well.)
func (s *domainState) fold(a *accumulator, sign int) {
	s.count += sign * a.count
	t := &a.table
	for i, row := range s.rows {
		for pos, c := range t.row(i) {
			if c == 0 {
				continue
			}
			v := t.snap.ID(t.index(pos))
			switch next := row[v] + sign*int(c); {
			case next > 0:
				row[v] = next
			case next == 0:
				delete(row, v)
			default:
				panic(fmt.Sprintf("core: domain refcount for node %d vertex %d went negative (%d)", s.nodes[i], v, next))
			}
		}
	}
}

// sizes returns the MNI domain size of every pattern node, aligned with
// Pattern().Nodes(), as a fresh slice.
func (s *domainState) sizes() []int {
	sizes := make([]int, len(s.rows))
	for i, row := range s.rows {
		sizes[i] = len(row)
	}
	return sizes
}

// accumulator is what the occurrences of one pass are folded into: the
// occurrence count and the pass's domain table. It reads an occurrence and
// retains nothing of it, which is what lets the enumeration engine lend every
// worker's occurrences instead of allocating them. Each enumeration worker
// owns exactly one, so the hot path takes no locks; the per-worker
// accumulators are merged once enumeration finishes.
type accumulator struct {
	count int
	table domainTable
	// dirty, when non-nil, restricts counting to occurrences that touch one
	// of its vertices (the delta passes of DeltaContext.Refresh): the batch's
	// dirty vertices as sorted dense indexes of the pass's snapshot.
	dirty []int32
}

//gvet:hotpath
func (a *accumulator) yield(o *isomorph.Occurrence) bool {
	if a.dirty != nil && !a.touchesDirty(o) {
		return true
	}
	a.count++
	a.table.add(o)
	return true
}

// touchesDirty reports whether an image of o is one of a.dirty's indexes. It
// runs once per occurrence rooted in the ball and rejects most of them, so
// the binary search is written out: called through slices.BinarySearch the
// same probes were 18 % of a 70-pattern session refresh's CPU, inline 14 %.
//
//gvet:hotpath
func (a *accumulator) touchesDirty(o *isomorph.Occurrence) bool {
	dirty := a.dirty
	for i := 0; i < o.Len(); i++ {
		x := o.IndexAt(i)
		lo, hi := 0, len(dirty)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); dirty[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(dirty) && dirty[lo] == x {
			return true
		}
	}
	return false
}

// accumulate streams the occurrences of p over snap into one accumulator per
// enumeration worker and returns them in worker order; none when the search
// has no plan (the pattern cannot occur at all). With ball nil it is a
// complete enumeration over whole-snapshot tables; otherwise ball is the
// sorted root restriction and the universe of every table, and only
// occurrences touching dirty are counted.
func accumulate(snap *graph.Snapshot, p *pattern.Pattern, parallelism int, ball, dirty []int32) []*accumulator {
	nodes := p.Nodes()
	var accs []*accumulator
	enum := isomorph.Options{Parallelism: parallelism, RootIndexes: ball}
	isomorph.EnumerateSnapshotWorkers(snap, p, enum, func(int) func(*isomorph.Occurrence) bool {
		a := &accumulator{table: newDomainTable(snap, nodes, ball), dirty: dirty}
		accs = append(accs, a)
		return a.yield
	})
	return accs
}

// scan folds a list enumerated over snap into one accumulator; like
// accumulate, it allocates no table for a pattern that does not occur.
func scan(snap *graph.Snapshot, p *pattern.Pattern, occs []*isomorph.Occurrence) *accumulator {
	if len(occs) == 0 {
		return mergeWorkers(p, nil)
	}
	a := &accumulator{count: len(occs), table: newDomainTable(snap, p.Nodes(), nil)}
	for _, o := range occs {
		a.table.addListed(o)
	}
	return a
}

// mergeWorkers merges per-worker accumulators into the first of them, which
// saves the sequential path a copy of its only table. No workers at all (the
// pattern cannot occur) merge to an accumulator with no counters.
func mergeWorkers(p *pattern.Pattern, accs []*accumulator) *accumulator {
	if len(accs) == 0 {
		return &accumulator{table: domainTable{nodes: p.Nodes()}}
	}
	all := accs[0]
	for _, b := range accs[1:] {
		all.count += b.count
		all.table.merge(b.table)
	}
	return all
}

// instancesByOrbit is the distinct-instance count of a complete occurrence
// set. An instance (Definition 2.1.9) is an image subgraph f(P), identified
// by its vertex set and its edge set. Two occurrences f, g with the same
// image differ by the permutation g⁻¹∘f of the pattern's nodes, which keeps
// labels and maps edges onto edges: an automorphism (Definition 2.1.6).
// Conversely f∘σ is an occurrence with f's image for every automorphism σ,
// and f∘σ = f forces σ = id because f is injective. So Aut(P) acts freely on
// the occurrences and its orbits are exactly the instances, each of size
// |Aut(P)|. The one precondition is that the set is closed under that action:
// an untruncated enumeration is, and so is its restriction to the occurrences
// touching a vertex set (a property of the image); a MaxOccurrences prefix is
// not, and is counted from its retained list instead.
func instancesByOrbit(occurrences, automorphisms int) int {
	if occurrences%automorphisms != 0 {
		panic(fmt.Sprintf("core: %d occurrences is not a multiple of the pattern's %d automorphisms", occurrences, automorphisms))
	}
	return occurrences / automorphisms
}

// automorphismCount returns |Aut(p)|; callers compute it once per context.
func automorphismCount(p *pattern.Pattern) int {
	return len(isomorph.Automorphisms(p.Graph()))
}
