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
	// occurrences lists the indexes (into the originating occurrence slice)
	// of all occurrences whose image is this instance.
	occurrences []int
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

// OccurrenceIndexes returns the indexes of the occurrences that project onto
// this instance, relative to the occurrence slice passed to Instances.
func (in *Instance) OccurrenceIndexes() []int {
	out := make([]int, len(in.occurrences))
	copy(out, in.occurrences)
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
// edge set) and returns the distinct instances in deterministic order. The
// occurrence indexes recorded on each instance refer to positions in occs.
func Instances(p *pattern.Pattern, occs []*Occurrence) []*Instance {
	byKey := make(map[string]*Instance)
	var order []string
	for i, o := range occs {
		vs := o.VertexSet()
		es := o.EdgeImage(p)
		inst := &Instance{vertices: vs, edges: es}
		key := inst.Key()
		if existing, ok := byKey[key]; ok {
			existing.occurrences = append(existing.occurrences, i)
			continue
		}
		inst.occurrences = []int{i}
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

// VerticesOverlap reports whether two instances share at least one vertex
// (vertex overlap, Definition 2.2.3).
func VerticesOverlap(a, b *Instance) bool {
	set := make(map[graph.VertexID]bool, len(a.vertices))
	for _, v := range a.vertices {
		set[v] = true
	}
	for _, v := range b.vertices {
		if set[v] {
			return true
		}
	}
	return false
}

// EdgesOverlap reports whether two instances share at least one edge
// (edge overlap, Definition 2.2.4).
func EdgesOverlap(a, b *Instance) bool {
	set := make(map[graph.Edge]bool, len(a.edges))
	for _, e := range a.edges {
		set[e] = true
	}
	for _, e := range b.edges {
		if set[e] {
			return true
		}
	}
	return false
}
