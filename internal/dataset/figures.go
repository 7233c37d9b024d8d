// Package dataset provides graph I/O (the GraMi-style .lg text format) and
// the built-in example graphs transcribed from the paper's figures. The figure fixtures are the ground truth for the
// correctness tests and for the F1-F10 rows of the gbench "figures" experiment.
package dataset

import (
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Labels used by the figure fixtures. The paper encodes labels as vertex
// shades; we use A (dark) and B (light).
const (
	LabelA graph.Label = 1
	LabelB graph.Label = 2
	LabelC graph.Label = 3
)

// Figure is a named example consisting of a data graph, a pattern, and the
// support values the paper reports for it (when stated). Expected values that
// the paper does not state are set to -1 and skipped by the tests.
type Figure struct {
	Name    string
	Graph   *graph.Graph
	Pattern *pattern.Pattern
	// Expected support values as printed in the paper; -1 means "not stated".
	ExpectedMNI float64
	ExpectedMI  float64
	ExpectedMVC float64
	ExpectedMIS float64
	// ExpectedOccurrences / ExpectedInstances are raw counts mentioned in the
	// running text; -1 means "not stated".
	ExpectedOccurrences int
	ExpectedInstances   int
}

// Figure1 is the running example of the introduction: a one-edge pattern in a
// small five-vertex data graph, used to sketch the hypergraph framework. The
// paper's Figure 1 gives the drawing but not the counts, so all expectations
// except the occurrence count are left unstated; the builder below is the
// concrete label assignment chosen here.
func Figure1() Figure {
	g := graph.NewBuilder("figure1").
		Vertex(1, LabelA).Vertex(2, LabelB).Vertex(3, LabelB).Vertex(4, LabelB).Vertex(5, LabelA).
		Edge(1, 2).Edge(1, 3).Edge(3, 5).Edge(4, 5).
		MustBuild()
	p := graph.NewBuilder("figure1-pattern").
		Vertex(0, LabelA).Vertex(1, LabelB).
		Edge(0, 1).
		MustBuild()
	return Figure{
		Name:                "figure1",
		Graph:               g,
		Pattern:             pattern.MustNew(p),
		ExpectedMNI:         -1,
		ExpectedMI:          -1,
		ExpectedMVC:         -1,
		ExpectedMIS:         -1,
		ExpectedOccurrences: 4,
		ExpectedInstances:   4,
	}
}

// Figure2 is the triangle example showing that MNI overestimates: the
// triangle pattern has six occurrences but a single instance; MNI is 3 while
// MIS is 1.
func Figure2() Figure {
	g := graph.NewBuilder("figure2").
		Vertices(LabelA, 1, 2, 3, 4, 5, 6).
		Cycle(1, 2, 3).
		Edge(2, 4).Edge(3, 5).Edge(3, 6).
		MustBuild()
	p := graph.NewBuilder("figure2-pattern").
		Vertices(LabelA, 0, 1, 2).
		Cycle(0, 1, 2).
		MustBuild()
	return Figure{
		Name:                "figure2",
		Graph:               g,
		Pattern:             pattern.MustNew(p),
		ExpectedMNI:         3,
		ExpectedMI:          1,
		ExpectedMVC:         1,
		ExpectedMIS:         1,
		ExpectedOccurrences: 6,
		ExpectedInstances:   1,
	}
}

// Figure3 is the 20-vertex data graph whose triangular pattern produces the
// occurrence/instance hypergraph with six edges e1..e6 drawn in Figure 3.
// Vertices 1..20 all share one label; the six triangles are
// {1,2,3}, {4,5,6}, {4,6,8}, {8,9,10}, {11,13,17} and {11,15,16}, matching
// the hypergraph edge set listed in Section 3.1. The remaining vertices are
// connected as a sparse background so the graph is a single component.
func Figure3() Figure {
	b := graph.NewBuilder("figure3")
	for v := 1; v <= 20; v++ {
		b.Vertex(graph.VertexID(v), LabelA)
	}
	// The six triangles from the text.
	b.Cycle(1, 2, 3)
	b.Cycle(4, 5, 6)
	b.Edge(4, 8).Edge(6, 8) // triangle {4,6,8} shares edge 4-6 with {4,5,6}
	b.Cycle(8, 9, 10)
	b.Cycle(11, 13, 17)
	b.Edge(11, 15).Edge(11, 16).Edge(15, 16)
	// Background edges connecting the remaining vertices without creating
	// additional triangles.
	b.Edge(3, 7).Edge(7, 12).Edge(12, 14).Edge(14, 18).Edge(18, 19).Edge(19, 20)
	b.Edge(2, 4).Edge(10, 11).Edge(5, 7)
	g := b.MustBuild()
	p := graph.NewBuilder("figure3-pattern").
		Vertices(LabelA, 0, 1, 2).
		Cycle(0, 1, 2).
		MustBuild()
	return Figure{
		Name:                "figure3",
		Graph:               g,
		Pattern:             pattern.MustNew(p),
		ExpectedMNI:         -1,
		ExpectedMI:          -1,
		ExpectedMVC:         -1,
		ExpectedMIS:         -1,
		ExpectedOccurrences: 36, // 6 instances x 6 automorphisms of the triangle
		ExpectedInstances:   6,
	}
}

// Figure4 is the MNI-vs-MI example: a path data graph 1-2-3-4 and a path
// pattern v1-v2-v3 whose end node has a distinct label; MNI is 2 but MI is 1
// because v2 and v3 are symmetric in the subpattern consisting of the edge
// between them.
func Figure4() Figure {
	g := graph.NewBuilder("figure4").
		Vertex(1, LabelA).Vertex(2, LabelB).Vertex(3, LabelB).Vertex(4, LabelA).
		Path(1, 2, 3, 4).
		MustBuild()
	p := graph.NewBuilder("figure4-pattern").
		Vertex(0, LabelA).Vertex(1, LabelB).Vertex(2, LabelB).
		Path(0, 1, 2).
		MustBuild()
	return Figure{
		Name:                "figure4",
		Graph:               g,
		Pattern:             pattern.MustNew(p),
		ExpectedMNI:         2,
		ExpectedMI:          1,
		ExpectedMVC:         1,
		ExpectedMIS:         1,
		ExpectedOccurrences: 2,
		ExpectedInstances:   2,
	}
}

// Figure5 reuses the Figure 2 data graph with the triangle pattern extended
// by a pendant node v4, illustrating the anti-monotonicity of MI and MVC: the
// superpattern's support must not exceed the subpattern's.
func Figure5() Figure {
	fig2 := Figure2()
	p := graph.NewBuilder("figure5-pattern").
		Vertices(LabelA, 0, 1, 2, 3).
		Cycle(0, 1, 2).
		Edge(2, 3).
		MustBuild()
	return Figure{
		Name:                "figure5",
		Graph:               fig2.Graph,
		Pattern:             pattern.MustNew(p),
		ExpectedMNI:         -1,
		ExpectedMI:          1,
		ExpectedMVC:         1,
		ExpectedMIS:         1,
		ExpectedOccurrences: 6,
		ExpectedInstances:   3,
	}
}

// Figure6 is the star-overlap example showing that MI cannot repair MNI's
// overestimation when occurrences only partially overlap: the one-edge
// pattern has seven occurrences, MNI = MI = 4 but MVC = MIS = 2.
func Figure6() Figure {
	g := graph.NewBuilder("figure6").
		Vertex(1, LabelA).Vertex(2, LabelA).Vertex(3, LabelA).Vertex(4, LabelA).
		Vertex(5, LabelB).Vertex(6, LabelB).Vertex(7, LabelB).Vertex(8, LabelB).
		Edge(1, 5).Edge(1, 6).Edge(1, 7).Edge(1, 8).
		Edge(2, 8).Edge(3, 8).Edge(4, 8).
		MustBuild()
	p := graph.NewBuilder("figure6-pattern").
		Vertex(0, LabelA).Vertex(1, LabelB).
		Edge(0, 1).
		MustBuild()
	return Figure{
		Name:                "figure6",
		Graph:               g,
		Pattern:             pattern.MustNew(p),
		ExpectedMNI:         4,
		ExpectedMI:          4,
		ExpectedMVC:         2,
		ExpectedMIS:         2,
		ExpectedOccurrences: 7,
		ExpectedInstances:   7,
	}
}

// Figure8 is the four-cycle example used to illustrate the instance
// hypergraph, its dual and the equivalence of MIS and MIES: the one-edge
// pattern has four instances arranged in a cycle of overlaps, so MIS = MIES = 2.
func Figure8() Figure {
	g := graph.NewBuilder("figure8").
		Vertex(1, LabelA).Vertex(2, LabelB).Vertex(3, LabelB).Vertex(4, LabelA).
		Cycle(1, 2, 4, 3).
		MustBuild()
	p := graph.NewBuilder("figure8-pattern").
		Vertex(0, LabelA).Vertex(1, LabelB).
		Edge(0, 1).
		MustBuild()
	return Figure{
		Name:                "figure8",
		Graph:               g,
		Pattern:             pattern.MustNew(p),
		ExpectedMNI:         2,
		ExpectedMI:          2,
		ExpectedMVC:         2,
		ExpectedMIS:         2,
		ExpectedOccurrences: 4,
		ExpectedInstances:   4,
	}
}

// Figure9 is the structural-overlap example: a path pattern A-B-B in a small
// graph where occurrences g1 and g2 overlap structurally (the transitive pair
// v2, v3 meets on data vertex 3) but not harmfully, while g1 and g3 overlap
// both structurally and harmfully. The MI value for the pattern is 2.
func Figure9() Figure {
	g := graph.NewBuilder("figure9").
		Vertex(1, LabelA).Vertex(2, LabelB).Vertex(3, LabelB).Vertex(4, LabelB).Vertex(5, LabelA).
		Path(1, 2, 3, 4).
		Edge(3, 5).
		MustBuild()
	p := graph.NewBuilder("figure9-pattern").
		Vertex(0, LabelA).Vertex(1, LabelB).Vertex(2, LabelB).
		Path(0, 1, 2).
		MustBuild()
	return Figure{
		Name:                "figure9",
		Graph:               g,
		Pattern:             pattern.MustNew(p),
		ExpectedMNI:         2,
		ExpectedMI:          2,
		ExpectedMVC:         -1,
		ExpectedMIS:         -1,
		ExpectedOccurrences: 3,
		ExpectedInstances:   3,
	}
}

// Figure10 is the overlap-taxonomy example: three occurrences f1, f2 and f3
// of a four-node path pattern in a nine-vertex data graph such that f1/f2
// overlap harmfully but not structurally, and f2/f3 overlap only simply
// (neither harmfully nor structurally). The paper's figure does not state its
// vertex labels, so the fixture instantiates the taxonomy with a path pattern
// labeled A-B-C-A whose two A-nodes are not transitive in any connected
// subgraph; this comment is the record of that substitution.
//
// Vertices 1,4,5,6 carry label A, 2,7,9 label B and 3,8 label C; the three
// occurrences are f1 = (1,2,3,4), f2 = (5,2,3,4) and f3 = (6,7,8,5).
func Figure10() Figure {
	g := graph.NewBuilder("figure10").
		Vertex(1, LabelA).Vertex(2, LabelB).Vertex(3, LabelC).Vertex(4, LabelA).
		Vertex(5, LabelA).Vertex(6, LabelA).Vertex(7, LabelB).Vertex(8, LabelC).Vertex(9, LabelB).
		Path(1, 2, 3, 4).
		Edge(5, 2).
		Path(6, 7, 8, 5).
		Edge(4, 9).
		MustBuild()
	p := graph.NewBuilder("figure10-pattern").
		Vertex(0, LabelA).Vertex(1, LabelB).Vertex(2, LabelC).Vertex(3, LabelA).
		Path(0, 1, 2, 3).
		MustBuild()
	return Figure{
		Name:                "figure10",
		Graph:               g,
		Pattern:             pattern.MustNew(p),
		ExpectedMNI:         -1,
		ExpectedMI:          -1,
		ExpectedMVC:         -1,
		ExpectedMIS:         -1,
		ExpectedOccurrences: 3,
		ExpectedInstances:   3,
	}
}

// AllFigures returns every built-in figure fixture in order.
func AllFigures() []Figure {
	return []Figure{
		Figure1(), Figure2(), Figure3(), Figure4(), Figure5(),
		Figure6(), Figure8(), Figure9(), Figure10(),
	}
}
