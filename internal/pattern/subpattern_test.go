package pattern_test

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// decodedCode is a canonical code read back: the label at every place and the
// adjacent place pairs.
type decodedCode struct {
	labels []graph.Label
	edges  [][2]int
}

func decodeCode(t *testing.T, code string) decodedCode {
	t.Helper()
	var d decodedCode
	rest := code
	for strings.HasPrefix(rest, "L") {
		dot := strings.IndexByte(rest, '.')
		if dot < 0 {
			t.Fatalf("code %q: unterminated token", code)
		}
		l, err := strconv.Atoi(rest[1:dot])
		if err != nil {
			t.Fatalf("code %q: bad token: %v", code, err)
		}
		d.labels = append(d.labels, graph.Label(l))
		rest = rest[dot+1:]
	}
	k := len(d.labels)
	if len(rest) != k*(k-1)/2 {
		t.Fatalf("code %q: %d triangle bits for %d places", code, len(rest), k)
	}
	bit := 0
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if rest[bit] == '1' {
				d.edges = append(d.edges, [2]int{a, b})
			}
			bit++
		}
	}
	return d
}

// subKey names a sub-pattern placed in its parent: its code, the parent
// positions it keeps and the parent edges it keeps, as positions.
func subKey(code string, nodes []int, edges [][2]int) string {
	nodes = append([]int(nil), nodes...)
	sort.Ints(nodes)
	es := make([]string, 0, len(edges))
	for _, e := range edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		es = append(es, fmt.Sprintf("%d-%d", e[0], e[1]))
	}
	sort.Strings(es)
	return fmt.Sprintf("%s|%v|%s", code, nodes, strings.Join(es, ","))
}

// buildOn returns the pattern of the graph on the given positions of labels
// with the given edges between them, numbered by position.
func buildOn(t *testing.T, labels []graph.Label, nodes []int, edges [][2]int) *pattern.Pattern {
	t.Helper()
	g := graph.New("sub")
	for _, n := range nodes {
		g.MustAddVertex(graph.VertexID(n), labels[n])
	}
	for _, e := range edges {
		g.MustAddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	p, err := pattern.New(g)
	if err != nil {
		t.Fatalf("sub-pattern on %v %v: %v", nodes, edges, err)
	}
	return p
}

// TestSubPatternsMatchBruteForce holds SubPatterns to the sub-patterns found
// by removing every edge and, when that disconnects the pattern, every
// isolated leaf: on every connected pattern of up to four nodes over two and
// three labels. Each listed code must be the CanonicalCode of the sub-pattern
// rebuilt from its places, each place map must keep labels and edges, and a
// dropped leaf must have no place. CanonicalOrder must write the pattern's own
// code.
func TestSubPatternsMatchBruteForce(t *testing.T) {
	checked := 0
	for _, pool := range [][]graph.Label{tokenLabels[:2], tokenLabels} {
		for k := 1; k <= 4; k++ {
			var pairs [][2]int
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					pairs = append(pairs, [2]int{i, j})
				}
			}
			labelings := 1
			for i := 0; i < k; i++ {
				labelings *= len(pool)
			}
			all := make([]int, k)
			for i := range all {
				all[i] = i
			}
			for mask := 0; mask < 1<<len(pairs); mask++ {
				var edges [][2]int
				for b, e := range pairs {
					if mask>>b&1 == 1 {
						edges = append(edges, e)
					}
				}
				for lab := 0; lab < labelings; lab++ {
					labels := make([]graph.Label, k)
					for i, rest := 0, lab; i < k; i, rest = i+1, rest/len(pool) {
						labels[i] = pool[rest%len(pool)]
					}
					g := graph.New("p")
					for i, l := range labels {
						g.MustAddVertex(graph.VertexID(i), l)
					}
					for _, e := range edges {
						g.MustAddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
					}
					if !g.IsConnected() {
						continue
					}
					checkSubPatterns(t, pattern.MustNew(g), labels, all, edges)
					checked++
				}
			}
		}
	}
	t.Logf("%d connected labeled patterns", checked)
}

func checkSubPatterns(t *testing.T, p *pattern.Pattern, labels []graph.Label, all []int, edges [][2]int) {
	t.Helper()
	k := len(labels)
	tag := fmt.Sprintf("pattern %s", p.CanonicalCode())
	adjacent := func(a, b int) bool { return p.HasEdge(graph.VertexID(a), graph.VertexID(b)) }

	own := decodeCode(t, p.CanonicalCode())
	order := p.CanonicalOrder()
	for a, pos := range order {
		if labels[pos] != own.labels[a] {
			t.Fatalf("%s: canonical place %d holds position %d labeled %d, the code says %d", tag, a, pos, labels[pos], own.labels[a])
		}
	}
	if got := len(own.edges); got != len(edges) {
		t.Fatalf("%s: code has %d edges, the pattern %d", tag, got, len(edges))
	}
	for _, e := range own.edges {
		if !adjacent(order[e[0]], order[e[1]]) {
			t.Fatalf("%s: code joins places %v, positions %d and %d are not adjacent", tag, e, order[e[0]], order[e[1]])
		}
	}

	// The brute force: every edge removed, every isolated leaf dropped.
	var want []string
	for r, cut := range edges {
		rest := append(append([][2]int(nil), edges[:r]...), edges[r+1:]...)
		g := graph.New("cut")
		for i, l := range labels {
			g.MustAddVertex(graph.VertexID(i), l)
		}
		for _, e := range rest {
			g.MustAddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
		}
		if g.IsConnected() {
			want = append(want, subKey(buildOn(t, labels, all, rest).CanonicalCode(), all, rest))
			continue
		}
		for _, leaf := range cut {
			if p.Degree(graph.VertexID(leaf)) != 1 {
				continue
			}
			var kept []int
			for _, n := range all {
				if n != leaf {
					kept = append(kept, n)
				}
			}
			want = append(want, subKey(buildOn(t, labels, kept, rest).CanonicalCode(), kept, rest))
		}
	}

	var got []string
	for _, sp := range p.SubPatterns() {
		d := decodeCode(t, sp.Code)
		if len(d.labels) != len(sp.Places) {
			t.Fatalf("%s: sub-pattern %s has %d places for %d nodes", tag, sp.Code, len(sp.Places), len(d.labels))
		}
		seen := make(map[int]bool)
		for a, pos := range sp.Places {
			if pos < 0 || pos >= k || seen[pos] {
				t.Fatalf("%s: sub-pattern %s places %v are not distinct positions", tag, sp.Code, sp.Places)
			}
			seen[pos] = true
			if labels[pos] != d.labels[a] {
				t.Fatalf("%s: sub-pattern %s puts label %d at place %d, position %d is labeled %d", tag, sp.Code, d.labels[a], a, pos, labels[pos])
			}
		}
		if len(sp.Places) == k-1 {
			for n := range all {
				if !seen[n] && p.Degree(graph.VertexID(n)) != 1 {
					t.Fatalf("%s: sub-pattern %s drops position %d, which is not a leaf", tag, sp.Code, n)
				}
			}
		} else if len(sp.Places) != k {
			t.Fatalf("%s: sub-pattern %s has %d of %d nodes", tag, sp.Code, len(sp.Places), k)
		}
		var subEdges [][2]int
		for _, e := range d.edges {
			u, v := sp.Places[e[0]], sp.Places[e[1]]
			if !adjacent(u, v) {
				t.Fatalf("%s: sub-pattern %s joins places %v, positions %d and %d are not adjacent", tag, sp.Code, e, u, v)
			}
			subEdges = append(subEdges, [2]int{u, v})
		}
		if len(subEdges) != len(edges)-1 {
			t.Fatalf("%s: sub-pattern %s has %d edges, want %d", tag, sp.Code, len(subEdges), len(edges)-1)
		}
		if rebuilt := buildOn(t, labels, sp.Places, subEdges).CanonicalCode(); rebuilt != sp.Code {
			t.Fatalf("%s: sub-pattern listed as %s rebuilds to %s", tag, sp.Code, rebuilt)
		}
		got = append(got, subKey(sp.Code, sp.Places, subEdges))
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: sub-patterns\n%s\nbrute force\n%s", tag, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
