package graph

import (
	"fmt"
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
			for _, w := range g.adjacency[v] {
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
		d := len(g.adjacency[v])
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
// AddVertex/AddEdge always validates; this is a safety net for loaders.
func (g *Graph) Validate() error {
	if len(g.order) != len(g.labels) {
		return fmt.Errorf("graph %q: order list has %d entries but label map has %d", g.name, len(g.order), len(g.labels))
	}
	for e := range g.edges {
		if e.U >= e.V {
			return fmt.Errorf("graph %q: edge %v is not normalized", g.name, e)
		}
		if !g.HasVertex(e.U) || !g.HasVertex(e.V) {
			return fmt.Errorf("graph %q: edge %v references a missing vertex", g.name, e)
		}
	}
	degreeSum := 0
	for v, adj := range g.adjacency {
		if !g.HasVertex(v) {
			return fmt.Errorf("graph %q: adjacency entry for missing vertex %d", g.name, v)
		}
		seen := make(map[VertexID]bool, len(adj))
		for _, w := range adj {
			if w == v {
				return fmt.Errorf("graph %q: self loop in adjacency of %d", g.name, v)
			}
			if seen[w] {
				return fmt.Errorf("graph %q: duplicate adjacency %d-%d", g.name, v, w)
			}
			seen[w] = true
			if !g.HasEdge(v, w) {
				return fmt.Errorf("graph %q: adjacency %d-%d has no matching edge", g.name, v, w)
			}
		}
		degreeSum += len(adj)
	}
	if degreeSum != 2*len(g.edges) {
		return fmt.Errorf("graph %q: degree sum %d does not equal 2*|E|=%d", g.name, degreeSum, 2*len(g.edges))
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
