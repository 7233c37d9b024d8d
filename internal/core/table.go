package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// domainTable is the one representation of MNI state (Definition 2.2.8:
// project the occurrence relation onto each pattern node, count distinct):
// rows[i][v] is the number of counted occurrences that map pattern node
// nodes[i] to data vertex v, and an entry exists only while that number is
// positive, so the MNI domain size of a node is the length of its row.
//
// A multiplicity per projected tuple rather than a bare set is what lets one
// type serve both uses (Berkholz et al., PAPERS.md). A from-scratch build
// only adds, so the refcounts go unread and "present" is all that matters;
// delta maintenance also merges with sign -1, where the refcount is what
// tells the last occurrence through a vertex from one of many. The layout —
// one map per node keyed by VertexID — is known to the three methods below
// and to nothing else.
type domainTable struct {
	nodes []pattern.NodeID
	rows  []map[graph.VertexID]int
}

func newDomainTable(nodes []pattern.NodeID) domainTable {
	t := domainTable{nodes: nodes, rows: make([]map[graph.VertexID]int, len(nodes))}
	for i := range t.rows {
		t.rows[i] = make(map[graph.VertexID]int)
	}
	return t
}

// add counts one occurrence into every row.
func (t domainTable) add(o *isomorph.Occurrence) {
	for i, row := range t.rows {
		row[o.ImageAt(i)]++
	}
}

// merge adds sign times other's refcounts into t and deletes entries that
// reach zero. A negative refcount means a subtracted occurrence was never
// added — the plus and minus passes of a delta refresh disagreed about the
// old graph — which the construction rules out, so it panics.
func (t domainTable) merge(other domainTable, sign int) {
	for i, row := range t.rows {
		for v, c := range other.rows[i] {
			switch next := row[v] + sign*c; {
			case next > 0:
				row[v] = next
			case next == 0:
				delete(row, v)
			default:
				panic(fmt.Sprintf("core: domain refcount for node %d vertex %d went negative (%d)", t.nodes[i], v, next))
			}
		}
	}
}

// sizes returns the MNI domain size of every pattern node, aligned with
// Pattern().Nodes(), as a fresh slice.
func (t domainTable) sizes() []int {
	sizes := make([]int, len(t.rows))
	for i, row := range t.rows {
		sizes[i] = len(row)
	}
	return sizes
}

// accumulator is what occurrences are folded into: the occurrence count and
// the domain table. It reads an occurrence and retains nothing of it, which
// is what lets the enumeration engine lend every worker's occurrences instead
// of allocating them. Each enumeration worker owns exactly one, so the hot
// path takes no locks; the per-worker accumulators are merged once
// enumeration finishes, a materialized build scans its list into one, and a
// DeltaContext keeps one more as its maintained state.
type accumulator struct {
	count int
	table domainTable
	// dirty, when non-nil, restricts counting to occurrences that touch one
	// of its vertices (the delta passes of DeltaContext.Refresh).
	dirty map[graph.VertexID]bool
}

func (a *accumulator) yield(o *isomorph.Occurrence) bool {
	if a.dirty != nil {
		touched := false
		for i := 0; i < o.Len(); i++ {
			if a.dirty[o.ImageAt(i)] {
				touched = true
				break
			}
		}
		if !touched {
			return true
		}
	}
	a.count++
	a.table.add(o)
	return true
}

// merge folds the counts of every accumulator in accs into a with the given
// sign.
func (a *accumulator) merge(accs []*accumulator, sign int) {
	for _, b := range accs {
		a.count += sign * b.count
		a.table.merge(b.table, sign)
	}
}

// accumulate streams the occurrences of p over snap into one accumulator per
// enumeration worker and returns them in worker order; none when the search
// has no plan (the pattern cannot occur at all).
func accumulate(snap *graph.Snapshot, p *pattern.Pattern, enum isomorph.Options, dirty map[graph.VertexID]bool) []*accumulator {
	nodes := p.Nodes()
	var accs []*accumulator
	isomorph.EnumerateSnapshotWorkers(snap, p, enum, func(int) func(*isomorph.Occurrence) bool {
		a := &accumulator{table: newDomainTable(nodes), dirty: dirty}
		accs = append(accs, a)
		return a.yield
	})
	return accs
}

// mergeWorkers merges per-worker accumulators into the first of them, which
// saves the sequential path a copy of its only table.
func mergeWorkers(p *pattern.Pattern, accs []*accumulator) *accumulator {
	if len(accs) == 0 {
		return &accumulator{table: newDomainTable(p.Nodes())}
	}
	accs[0].merge(accs[1:], +1)
	return accs[0]
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
