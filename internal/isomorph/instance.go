package isomorph

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Instance is a subgraph of the data graph isomorphic to the pattern
// (Definition 2.1.9): the image subgraph f(P) of one or more occurrences.
// Several occurrences can map the pattern onto the same instance when the
// pattern has non-identity automorphisms (Figure 2: six occurrences of the
// triangle, one instance).
type Instance struct {
	vertices []graph.VertexID
	edges    []graph.Edge
}

// Vertices returns the instance's vertex set, sorted.
func (in *Instance) Vertices() []graph.VertexID {
	out := make([]graph.VertexID, len(in.vertices))
	copy(out, in.vertices)
	return out
}

// Edges returns the instance's edge set, sorted.
func (in *Instance) Edges() []graph.Edge {
	out := make([]graph.Edge, len(in.edges))
	copy(out, in.edges)
	return out
}

// Key returns a canonical string identifying the instance subgraph.
func (in *Instance) Key() string {
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

// String implements fmt.Stringer.
func (in *Instance) String() string { return "S{" + in.Key() + "}" }

// Instances groups occurrences by their image subgraph f(P) (vertex set and
// edge set) and returns the distinct instances in deterministic order. It is
// the tests' reference grouping: no context counts instances this way, since
// a complete list's instances are its orbits under Aut(P).
func Instances(p *pattern.Pattern, occs []*Occurrence) []*Instance {
	byKey := make(map[string]*Instance)
	var order []string
	for _, o := range occs {
		inst := &Instance{vertices: o.VertexSet(), edges: o.EdgeImage(p)}
		key := inst.Key()
		if _, seen := byKey[key]; seen {
			continue
		}
		byKey[key] = inst
		order = append(order, key)
	}
	sort.Strings(order)
	out := make([]*Instance, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	return out
}
