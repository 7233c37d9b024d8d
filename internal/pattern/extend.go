package pattern

import (
	"slices"

	"repro/internal/graph"
)

// Extension describes one grow step applied to a pattern during mining.
type Extension struct {
	// Kind is "edge" when connecting two existing nodes and "vertex" when a
	// new node is attached to an existing one.
	Kind string
	// From is the existing node the extension attaches to.
	From NodeID
	// To is the other existing node ("edge" extensions) or the newly created
	// node ("vertex" extensions).
	To NodeID
	// Label is the label of the new node for "vertex" extensions.
	Label graph.Label
	// Result is the extended pattern with dense node IDs.
	Result *Pattern
}

// Extend enumerates all patterns obtained from p by a single grow step:
// either adding an edge between two existing non-adjacent nodes, or attaching
// a brand new node with one of the given labels to an existing node. The
// returned extensions are de-duplicated up to isomorphism of the resulting
// pattern, so the miner explores each shape exactly once per parent; the
// first grow step reaching a shape (edge steps by node pair, then vertex
// steps by node and ascending label) represents it. An empty alphabet yields
// the edge extensions only. It is Steps with the steps that reach a shape
// already listed dropped.
//
// Result nodes are numbered 0..k-1 in the order of p's sorted node IDs, a
// new node taking the last number; From and To name p's own IDs (To of a
// vertex extension is one past p's largest, at least 0). Each Result already
// holds its canonical form.
func (p *Pattern) Extend(labels []graph.Label) []Extension {
	out := make([]Extension, 0, p.GrowSteps(len(labels)))
	seen := make(map[string]bool, cap(out))
	p.Steps(labels, func(s Step) bool {
		if !seen[s.Code] {
			seen[s.Code] = true
			out = append(out, Extension{Kind: s.Kind, From: s.From, To: s.To, Label: s.Label, Result: s.Pattern()})
		}
		return true
	})
	return out
}

// Step is one grow step of a pattern (see Steps): what it adds, the grown
// pattern's canonical form, and where the parent sits in the grown pattern.
// The grown pattern's positions below the parent's size are the parent's own
// positions; a vertex step's new node takes the last.
type Step struct {
	// Kind, From, To and Label say what the step adds, as in Extension.
	Kind     string
	From, To NodeID
	Label    graph.Label
	// Edge is the added edge, as positions of the grown pattern.
	Edge [2]int
	// Code is the grown pattern's canonical code.
	Code string
	// Places[i] is the canonical place of the grown pattern's node at
	// position i, the inverse of its CanonicalOrder. Shared: callers must not
	// modify it.
	Places []int

	parent *Pattern
	nodes  []NodeID
	shape  shape
	form   *form
}

// Pattern returns the grown pattern with dense node IDs, holding its
// canonical form. Each call builds a new one.
func (s Step) Pattern() *Pattern {
	out := &Pattern{name: s.parent.name, nodes: s.nodes, shape: s.shape, edges: s.parent.edges + 1}
	out.canonical.Store(s.form)
	return out
}

// Steps calls yield with the grow steps of p over the given labels — one per
// node pair that is not an edge, then one per node and label, labels in
// ascending order — until yield returns false. Unlike Extend it keeps the
// steps that reach one shape more than once, since each places p in the shape
// differently. It skips only what p's own symmetry repeats: a step that an
// automorphism of p maps onto an earlier step reaches the same shape and
// places p in it the same way up to the shape's automorphisms, so only the
// first step of each such orbit is taken. Every step taken computes one
// canonical form.
func (p *Pattern) Steps(labels []graph.Label, yield func(Step) bool) {
	k := len(p.nodes)
	f := p.canon()
	// taken marks the orbits under p's automorphisms a step has come from:
	// the node pair orbits, then the node orbits offset past them.
	taken := make([]bool, len(f.pairs)+k)
	first := func(orbit int) bool {
		if taken[orbit] {
			return false
		}
		taken[orbit] = true
		return true
	}
	search := newCanonSearch(k + 1) // lent from step to step
	step := func(s Step) bool {
		s.parent = p
		s.form = s.shape.canonicalForm(search)
		s.Code, s.Places = s.form.code, s.form.places
		return yield(s)
	}

	var same []NodeID // shared by the results: patterns never change
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if p.has(i, j) || !first(f.pairOrbit(f.places[i], f.places[j])) {
				continue
			}
			if same == nil {
				same = denseNodes(k)
			}
			if !step(Step{Kind: "edge", From: p.nodes[i], To: p.nodes[j], Edge: [2]int{i, j}, nodes: same, shape: p.withEdge(i, j)}) {
				return
			}
		}
	}

	if len(labels) == 0 {
		return
	}
	sorted := slices.Clone(labels)
	slices.Sort(sorted)
	grown := denseNodes(k + 1)
	newID := NodeID(0)
	if last := p.nodes[k-1]; last >= 0 {
		newID = last + 1
	}
	for i := 0; i < k; i++ {
		if !first(len(f.pairs) + f.orbits[f.places[i]]) {
			continue
		}
		for _, l := range sorted {
			if !step(Step{Kind: "vertex", From: p.nodes[i], To: newID, Label: l, Edge: [2]int{i, k}, nodes: grown, shape: p.withLeaf(i, l)}) {
				return
			}
		}
	}
}

// GrownEdges returns how many edges of p some grow step adds (its Edge) to
// reach p from a connected pattern with one edge fewer: every edge to a leaf,
// which a vertex step adds, and every edge whose removal leaves p connected,
// which an edge step adds. A bridge between two larger parts is never one
// step's.
func (p *Pattern) GrownEdges() int {
	k, n := len(p.nodes), 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if p.has(i, j) && (p.degree(i) == 1 || p.degree(j) == 1 || p.onCycle(i, j)) {
				n++
			}
		}
	}
	return n
}

// GrowSteps returns how many grow steps p has over an alphabet of the given
// size: one per non-adjacent node pair plus one per node and label. Steps
// and Extend compute a canonical code for each of them that p's symmetry does
// not repeat.
func (p *Pattern) GrowSteps(alphabet int) int {
	k := len(p.nodes)
	return k*(k-1)/2 - p.edges + k*alphabet
}
