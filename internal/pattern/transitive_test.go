package pattern_test

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// referenceTransitiveNodeSubsets is TransitiveNodeSubsets as it was built on
// graphs: for every induced subgraph of P, every edge subset that keeps it
// connected becomes a fresh graph.Graph whose orbits (found by trying every
// vertex permutation) contribute all their subsets of two or more nodes;
// with the singletons, de-duplicated by a string key and sorted by size, then
// node IDs.
func referenceTransitiveNodeSubsets(p *pattern.Pattern) [][]pattern.NodeID {
	nodes, g := p.Nodes(), p.Graph()
	seen := make(map[string]bool)
	var out [][]pattern.NodeID
	add := func(subset []pattern.NodeID) {
		if key := fmt.Sprint(subset); !seen[key] {
			seen[key] = true
			out = append(out, subset)
		}
	}
	for _, v := range nodes {
		add([]pattern.NodeID{v})
	}
	for mask := 1; mask < 1<<len(nodes); mask++ {
		var kept []pattern.NodeID
		for i, v := range nodes {
			if mask>>i&1 != 0 {
				kept = append(kept, v)
			}
		}
		var edges []graph.Edge
		for _, e := range g.Edges() {
			if slices.Contains(kept, e.U) && slices.Contains(kept, e.V) {
				edges = append(edges, e)
			}
		}
		for em := 0; em < 1<<len(edges); em++ {
			partial := graph.New("partial")
			for _, v := range kept {
				partial.MustAddVertex(v, p.LabelOf(v))
			}
			for i, e := range edges {
				if em>>i&1 != 0 {
					partial.MustAddEdge(e.U, e.V)
				}
			}
			if partial.NumVertices() > 1 && !partial.IsConnected() {
				continue
			}
			for _, orbit := range referenceOrbits(partial) {
				for om := 1; om < 1<<len(orbit); om++ {
					if bits.OnesCount(uint(om)) < 2 {
						continue
					}
					var subset []pattern.NodeID
					for i, v := range orbit {
						if om>>i&1 != 0 {
							subset = append(subset, v)
						}
					}
					add(subset)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return slices.Compare(out[i], out[j]) < 0
	})
	return out
}

// referenceOrbits returns the orbits of Aut(g), each sorted, ordered by their
// smallest vertex: every bijection of the vertices is tried, and one that
// keeps labels and edges is an automorphism.
func referenceOrbits(g *graph.Graph) [][]graph.VertexID {
	vs := g.SortedVertices()
	images := make(map[graph.VertexID]map[graph.VertexID]bool)
	for _, v := range vs {
		images[v] = make(map[graph.VertexID]bool)
	}
	perm := make(map[graph.VertexID]graph.VertexID)
	used := make(map[graph.VertexID]bool)
	var try func(d int)
	try = func(d int) {
		if d == len(vs) {
			for _, e := range g.Edges() {
				if !g.HasEdge(perm[e.U], perm[e.V]) {
					return
				}
			}
			for v, w := range perm {
				images[v][w] = true
			}
			return
		}
		for _, w := range vs {
			if !used[w] && g.MustLabelOf(w) == g.MustLabelOf(vs[d]) {
				perm[vs[d]], used[w] = w, true
				try(d + 1)
				used[w] = false
			}
		}
	}
	try(0)
	var orbits [][]graph.VertexID
	for _, v := range vs {
		var orbit []graph.VertexID
		for _, w := range vs {
			if images[v][w] {
				orbit = append(orbit, w)
			}
		}
		if orbit[0] == v {
			orbits = append(orbits, orbit)
		}
	}
	return orbits
}

// checkTransitiveNodeSubsets fails t unless TransitiveNodeSubsets returns the
// reference's list for p, order included.
func checkTransitiveNodeSubsets(t *testing.T, p *pattern.Pattern) {
	t.Helper()
	got, err := p.TransitiveNodeSubsets()
	if err != nil {
		t.Fatalf("%v: %v", p.Graph(), err)
	}
	if want := referenceTransitiveNodeSubsets(p); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%v %v:\n got %v\nwant %v", p.Graph(), p.Edges(), got, want)
	}
}

// TestTransitiveNodeSubsetsMatchReference sweeps every connected labeled
// graph on up to four nodes over labels {1, 2}, numbered from 0 and from 1.
func TestTransitiveNodeSubsetsMatchReference(t *testing.T) {
	patterns := 0
	for k := 1; k <= 4; k++ {
		var pairs [][2]int
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		for labels := 0; labels < 1<<k; labels++ {
			for em := 0; em < 1<<len(pairs); em++ {
				for _, base := range []graph.VertexID{0, 1} {
					g := graph.New("sweep")
					for i := 0; i < k; i++ {
						g.MustAddVertex(base+graph.VertexID(i), graph.Label(1+labels>>i&1))
					}
					for e, pair := range pairs {
						if em>>e&1 != 0 {
							g.MustAddEdge(base+graph.VertexID(pair[0]), base+graph.VertexID(pair[1]))
						}
					}
					p, err := pattern.New(g)
					if err != nil {
						continue // disconnected
					}
					checkTransitiveNodeSubsets(t, p)
					patterns++
				}
			}
		}
	}
	if patterns != 2*(2*1+4*1+8*4+16*38) {
		t.Errorf("swept %d patterns", patterns)
	}
}

// FuzzTransitiveNodeSubsets holds TransitiveNodeSubsets to the reference on
// connected patterns of up to six nodes decoded from the fuzz bytes: a label
// in {1, 2} per node, a spanning tree and up to three more edges, numbered
// from an offset in 0..3.
func FuzzTransitiveNodeSubsets(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 1, 0, 0, 1, 0, 1, 2, 0, 2, 1, 3})
	f.Add([]byte{6, 2, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 4, 5, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%6
		base := graph.VertexID(data[1] % 4)
		data = data[2:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		g := graph.New("fuzz")
		for i := 0; i < k; i++ {
			g.MustAddVertex(base+graph.VertexID(i), graph.Label(1+next()%2))
		}
		for i := 1; i < k; i++ {
			g.MustAddEdge(base+graph.VertexID(i), base+graph.VertexID(next()%i))
		}
		for extra := 0; extra < 3 && len(data) >= 2; extra++ {
			u, v := base+graph.VertexID(next()%k), base+graph.VertexID(next()%k)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		checkTransitiveNodeSubsets(t, pattern.MustNew(g))
	})
}

// TestTransitiveNodeSubsetsWidePattern: a pattern of more than 64 nodes is an
// error, not a list.
func TestTransitiveNodeSubsetsWidePattern(t *testing.T) {
	ids := make([]graph.VertexID, 65)
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	p := pattern.MustNew(graph.NewBuilder("wide").Vertices(1, ids...).Path(ids...).MustBuild())
	if subsets, err := p.TransitiveNodeSubsets(); err == nil {
		t.Errorf("a 65-node pattern gave %d subsets and no error", len(subsets))
	}
}

func TestTransitiveNodeSubsetsOfProperSubgraphs(t *testing.T) {
	// Figure 4 pattern: path A-B-B. The pair {1,2} is transitive only in the
	// subpattern consisting of the B-B edge.
	p := pattern.MustNew(graph.NewBuilder("p").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 2).Path(0, 1, 2).MustBuild())
	if sym := isomorph.NewSymmetry(p); sym.OrbitOf(1) == sym.OrbitOf(2) {
		t.Fatal("nodes 1 and 2 must not share an orbit of P itself")
	}
	all, err := p.TransitiveNodeSubsets()
	if err != nil {
		t.Fatal(err)
	}
	if !containsSubset(all, []pattern.NodeID{1, 2}) {
		t.Errorf("subsets should contain {1,2}, got %v", all)
	}
	// Singletons must always be present.
	for _, n := range p.Nodes() {
		if !containsSubset(all, []pattern.NodeID{n}) {
			t.Errorf("singleton {%d} missing", n)
		}
	}
	// Same-labeled but never-symmetric nodes must not appear together: in the
	// A-B-C-A path, the two A nodes are not transitive in any connected
	// subgraph.
	q := pattern.MustNew(graph.NewBuilder("q").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 3).Vertex(3, 1).Path(0, 1, 2, 3).MustBuild())
	subsets, err := q.TransitiveNodeSubsets()
	if err != nil {
		t.Fatal(err)
	}
	for _, subset := range subsets {
		if containsNode(subset, 0) && containsNode(subset, 3) {
			t.Errorf("nodes 0 and 3 of the A-B-C-A path must not share a transitive subset: %v", subset)
		}
	}
}

func containsSubset(subsets [][]pattern.NodeID, want []pattern.NodeID) bool {
	for _, s := range subsets {
		if len(s) != len(want) {
			continue
		}
		match := true
		for i := range s {
			if s[i] != want[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func containsNode(subset []pattern.NodeID, n pattern.NodeID) bool {
	for _, v := range subset {
		if v == n {
			return true
		}
	}
	return false
}
