package graph

import (
	"fmt"
	"slices"
	"sort"
)

// ConnectedComponents returns the vertex sets of the connected components of
// g. Components are returned in a deterministic order (by smallest contained
// vertex ID) and each component's vertices are sorted.
func (g *Graph) ConnectedComponents() [][]VertexID {
	visited := make(map[VertexID]bool, g.NumVertices())
	var comps [][]VertexID
	for _, start := range g.SortedVertices() {
		if visited[start] {
			continue
		}
		// Iterative BFS to avoid recursion depth limits on large graphs.
		queue := []VertexID{start}
		visited[start] = true
		var comp []VertexID
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) IsConnected() bool {
	return len(g.ConnectedComponents()) <= 1
}

// DegreeStats summarizes the degree distribution of a graph.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// Histogram maps degree -> number of vertices with that degree.
	Histogram map[int]int
}

// DegreeStatistics returns summary statistics of the degree distribution.
// For the empty graph all fields are zero and the histogram is empty.
func (g *Graph) DegreeStatistics() DegreeStats {
	stats := DegreeStats{Histogram: make(map[int]int)}
	if g.NumVertices() == 0 {
		return stats
	}
	first := true
	total := 0
	for _, v := range g.order {
		d := g.Degree(v)
		if first {
			stats.Min, stats.Max = d, d
			first = false
		} else {
			if d < stats.Min {
				stats.Min = d
			}
			if d > stats.Max {
				stats.Max = d
			}
		}
		total += d
		stats.Histogram[d]++
	}
	stats.Mean = float64(total) / float64(g.NumVertices())
	return stats
}

// Density returns |E| / (|V| choose 2), the fraction of possible edges
// present. For graphs with fewer than two vertices the density is 0.
func (g *Graph) Density() float64 {
	n := g.NumVertices()
	if n < 2 {
		return 0
	}
	return float64(g.NumEdges()) / (float64(n) * float64(n-1) / 2)
}

// Validate performs internal consistency checks and returns an error
// describing the first problem found. A graph constructed exclusively through
// AddVertex/AddEdge always validates; this is a safety net for loaders. It
// checks the overlay against itself and against the base: every vertex is
// counted once, every overlay edge and row names live vertices and agrees
// with the edge set, and the degrees sum to twice the edge count. A base
// row the overlay does not hold is a frozen snapshot's and is not re-read.
func (g *Graph) Validate() error {
	live := len(g.labels)
	if g.base != nil {
		live += g.base.NumVertices() - len(g.goneVertices)
		for v := range g.goneVertices {
			if _, ok := g.base.IndexOf(v); !ok {
				return fmt.Errorf("graph %q: removed vertex %d is not a base vertex", g.name, v)
			}
		}
		for e := range g.goneEdges {
			if !g.base.HasEdge(e.U, e.V) {
				return fmt.Errorf("graph %q: removed edge %v is not a base edge", g.name, e)
			}
		}
	}
	if len(g.order) != live {
		return fmt.Errorf("graph %q: order list has %d entries but label map has %d", g.name, len(g.order), live)
	}
	for e := range g.edges {
		if e.U >= e.V {
			return fmt.Errorf("graph %q: edge %v is not normalized", g.name, e)
		}
		if !g.HasVertex(e.U) || !g.HasVertex(e.V) {
			return fmt.Errorf("graph %q: edge %v references a missing vertex", g.name, e)
		}
		if g.base != nil && g.base.HasEdge(e.U, e.V) {
			return fmt.Errorf("graph %q: overlay edge %v is a base edge too", g.name, e)
		}
	}
	var sorted []VertexID
	for v, adj := range g.adjacency {
		if !g.HasVertex(v) {
			return fmt.Errorf("graph %q: adjacency entry for missing vertex %d", g.name, v)
		}
		sorted = append(sorted[:0], adj...)
		slices.Sort(sorted)
		for k, w := range sorted {
			if w == v {
				return fmt.Errorf("graph %q: self loop in adjacency of %d", g.name, v)
			}
			if k > 0 && sorted[k-1] == w {
				return fmt.Errorf("graph %q: duplicate adjacency %d-%d", g.name, v, w)
			}
			if !g.HasEdge(v, w) {
				return fmt.Errorf("graph %q: adjacency %d-%d has no matching edge", g.name, v, w)
			}
		}
	}
	degreeSum := 0
	for _, v := range g.order {
		if !g.HasVertex(v) {
			return fmt.Errorf("graph %q: order list names missing vertex %d", g.name, v)
		}
		degreeSum += g.Degree(v)
	}
	if degreeSum != 2*g.NumEdges() {
		return fmt.Errorf("graph %q: degree sum %d does not equal 2*|E|=%d", g.name, degreeSum, 2*g.NumEdges())
	}
	for label, vs := range g.byLabel {
		for _, v := range vs {
			if got, ok := g.labels[v]; !ok || got != label {
				return fmt.Errorf("graph %q: label index lists vertex %d under %d but vertex has %d", g.name, v, label, got)
			}
		}
	}
	return nil
}
