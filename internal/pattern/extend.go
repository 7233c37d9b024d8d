package pattern

import (
	"sort"

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
// the edge extensions only.
//
// Result nodes are numbered 0..k-1 in the order of p's sorted node IDs, a
// new node taking the last number; From and To name p's own IDs (To of a
// vertex extension is one past p's largest, at least 0). Each Result already
// holds its canonical code.
func (p *Pattern) Extend(labels []graph.Label) []Extension {
	k := len(p.nodes)
	out := make([]Extension, 0, p.GrowSteps(len(labels)))
	seen := make(map[string]bool, cap(out))
	record := func(ext Extension, nodes []NodeID, s shape) {
		code := s.canonicalCode()
		if seen[code] {
			return
		}
		seen[code] = true
		ext.Result = &Pattern{name: p.name, nodes: nodes, shape: s, edges: p.edges + 1}
		ext.Result.code.Store(&code)
		out = append(out, ext)
	}

	same := denseNodes(k) // shared by the results: patterns never change
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if !p.has(i, j) {
				record(Extension{Kind: "edge", From: p.nodes[i], To: p.nodes[j]}, same, p.withEdge(i, j))
			}
		}
	}

	if len(labels) == 0 {
		return out
	}
	sorted := append([]graph.Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	grown := denseNodes(k + 1)
	newID := NodeID(0)
	if last := p.nodes[k-1]; last >= 0 {
		newID = last + 1
	}
	for i := 0; i < k; i++ {
		for _, l := range sorted {
			record(Extension{Kind: "vertex", From: p.nodes[i], To: newID, Label: l}, grown, p.withLeaf(i, l))
		}
	}
	return out
}

// GrowSteps returns how many grow steps Extend generates — and computes a
// canonical code for — over an alphabet of the given size, before it
// de-duplicates them: one per non-adjacent node pair plus one per node and
// label.
func (p *Pattern) GrowSteps(alphabet int) int {
	k := len(p.nodes)
	return k*(k-1)/2 - p.edges + k*alphabet
}
