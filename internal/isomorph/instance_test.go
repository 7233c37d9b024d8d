package isomorph_test

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// instance is a subgraph of the data graph isomorphic to the pattern
// (Definition 2.1.9): the image subgraph f(P) of one or more occurrences.
// Several occurrences can map the pattern onto the same instance when the
// pattern has non-identity automorphisms (Figure 2: six occurrences of the
// triangle, one instance).
type instance struct {
	vertices []graph.VertexID
	edges    []graph.Edge
}

// key returns a canonical string identifying the instance subgraph.
func (in *instance) key() string {
	s := "V:"
	for _, v := range in.vertices {
		s += fmt.Sprintf("%d,", v)
	}
	s += "E:"
	for _, e := range in.edges {
		s += fmt.Sprintf("%d-%d,", e.U, e.V)
	}
	return s
}

// instances groups occurrences by their image subgraph f(P) (vertex set and
// edge set) and returns the distinct instances in key order. It is the
// tests' reference grouping: the package counts instances as a complete
// list's orbits under Aut(P) instead.
func instances(p *pattern.Pattern, occs []*isomorph.Occurrence) []*instance {
	byKey := make(map[string]*instance)
	var order []string
	for _, o := range occs {
		in := &instance{vertices: o.VertexSet(), edges: o.EdgeImage(p)}
		key := in.key()
		if _, seen := byKey[key]; seen {
			continue
		}
		byKey[key] = in
		order = append(order, key)
	}
	sort.Strings(order)
	out := make([]*instance, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	return out
}
