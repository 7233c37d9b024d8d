package pattern_test

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// tokenLabels are labels whose code tokens sort differently from their
// values: "L-1." < "L10." < "L2." as strings, -1 < 2 < 10 as numbers.
var tokenLabels = []graph.Label{2, 10, -1}

// TestCanonicalCodeMatchesReference holds CanonicalCode to the string the
// k! search returns: on every connected labeled graph with up to five nodes
// over three labels, then on random larger ones with sparse IDs. Up to four
// nodes every numbering of every graph is tried; at five nodes the oracle
// costs 120 orders a graph, so each graph is tried under the numberings that
// put its labels in pool order — every edge set against every such labeling
// still reaches every graph, and numbering invariance has its own checks.
func TestCanonicalCodeMatchesReference(t *testing.T) {
	checked := 0
	for k := 1; k <= 5; k++ {
		pairs := k * (k - 1) / 2
		labelings := 1
		for i := 0; i < k; i++ {
			labelings *= len(tokenLabels)
		}
		for mask := 0; mask < 1<<pairs; mask++ {
			for lab := 0; lab < labelings; lab++ {
				g := graph.New("exhaustive")
				inPoolOrder := true
				for i, rest, prev := 0, lab, 0; i < k; i, rest = i+1, rest/len(tokenLabels) {
					l := rest % len(tokenLabels)
					inPoolOrder = inPoolOrder && l >= prev
					prev = l
					g.MustAddVertex(graph.VertexID(i), tokenLabels[l])
				}
				if k == 5 && !inPoolOrder {
					continue
				}
				bit := 0
				for i := 0; i < k; i++ {
					for j := i + 1; j < k; j++ {
						if mask>>bit&1 == 1 {
							g.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
						}
						bit++
					}
				}
				p, err := pattern.New(g)
				if (err == nil) != g.IsConnected() {
					t.Fatalf("k=%d mask=%b: New err = %v, graph connected = %v", k, mask, err, g.IsConnected())
				}
				if err != nil {
					continue
				}
				if got, want := p.CanonicalCode(), referenceCode(g); got != want {
					t.Fatalf("k=%d mask=%b labeling=%d: code %q, reference %q", k, mask, lab, got, want)
				}
				checkOrbits(t, p)
				checked++
			}
		}
	}
	t.Logf("exhaustive: %d connected labeled graphs", checked)

	rng := gen.NewRNG(20260929)
	for n := 0; n < 300; n++ {
		data := make([]byte, 40)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		checkAgainstReference(t, data)
	}
}

// FuzzCanonicalCode checks, on graphs decoded from the fuzz input, that the
// code equals the reference and does not depend on how nodes are numbered,
// and that the automorphisms are the reference's.
func FuzzCanonicalCode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 1, 1, 1, 0, 1, 2, 0xff})
	f.Add([]byte{6, 1, 2, 3, 4, 5, 0, 9, 9, 9, 9, 9, 9, 0, 0, 1, 2, 3, 0xaa, 0x55, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstReference(t, data) })
}

// checkAgainstReference decodes a graph and a renumbering of it from data
// and compares their codes with each other and with the reference, and the
// graph's automorphisms with the reference's.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	g, renumbered := decodeGraphs(data)
	want := referenceCode(g)
	p := pattern.MustNew(g)
	if got := p.CanonicalCode(); got != want {
		t.Fatalf("graph %v %v: code %q, reference %q", describe(g), g.Edges(), got, want)
	}
	checkOrbits(t, p)
	if got := pattern.MustNew(renumbered).CanonicalCode(); got != want {
		t.Fatalf("graph %v %v renumbered to %v %v: code %q, want %q",
			describe(g), g.Edges(), describe(renumbered), renumbered.Edges(), got, want)
	}
}

// checkOrbits holds p.PlaceOrbit and p.PairOrbit to the orbits of
// referenceAutomorphisms: the smallest place, and the smallest pair index, an
// automorphism maps each place and each pair of places to. It holds
// p.Automorphisms to the reference too: the same permutations, written on
// positions, in lexicographic order with the identity first, and a group
// whose smallest image of each place is its PlaceOrbit.
func checkOrbits(t *testing.T, p *pattern.Pattern) {
	t.Helper()
	auts := referenceAutomorphisms(p)
	k := p.Size()
	order := p.CanonicalOrder()
	places := make([]int, k)
	for a, pos := range order {
		places[pos] = a
	}
	want := make([][]int, len(auts))
	for g, sigma := range auts {
		// σ sends place a to place σ[a], so it sends position order[a] to
		// position order[σ[a]].
		want[g] = make([]int, k)
		for a, pos := range order {
			want[g][pos] = order[sigma[a]]
		}
	}
	slices.SortFunc(want, slices.Compare)
	group := p.Automorphisms()
	if fmt.Sprint(group) != fmt.Sprint(want) {
		t.Fatalf("%s: automorphisms %v, reference in lexicographic order %v", p, group, want)
	}
	for i, j := range group[0] {
		if i != j {
			t.Fatalf("%s: first automorphism %v is not the identity", p, group[0])
		}
	}
	pairIndex := func(a, b int) int { return max(a, b)*(max(a, b)-1)/2 + min(a, b) }
	for a := 0; a < k; a++ {
		want := a
		for _, sigma := range auts {
			want = min(want, sigma[a])
		}
		if got := p.PlaceOrbit(a); got != want {
			t.Fatalf("%s: place %d in orbit %d, reference %d", p, a, got, want)
		}
		smallest := a
		for _, perm := range group {
			smallest = min(smallest, places[perm[order[a]]])
		}
		if got := p.PlaceOrbit(a); got != smallest {
			t.Fatalf("%s: place %d in orbit %d, but Automorphisms take it to place %d at least", p, a, got, smallest)
		}
		for b := 0; b < a; b++ {
			want := pairIndex(a, b)
			for _, sigma := range auts {
				want = min(want, pairIndex(sigma[a], sigma[b]))
			}
			if got := p.PairOrbit(a, b); got != want || p.PairOrbit(b, a) != want {
				t.Fatalf("%s: places %d-%d in pair orbit %d (%d reversed), reference %d", p, b, a, got, p.PairOrbit(b, a), want)
			}
		}
	}
}

// TestStarOrbitsKeepLittle: the canonical form of a one-label star keeps its
// orbits, not its automorphism group. Eight leaves have 8! = 40 320
// automorphisms, 2.9 MB as place permutations; the code, order and orbits
// are well under 4 KiB, the search's buffers included.
func TestStarOrbitsKeepLittle(t *testing.T) {
	g := graph.New("star")
	g.MustAddVertex(0, 1)
	for v := graph.VertexID(1); v <= 8; v++ {
		g.MustAddVertex(v, 1)
		g.MustAddEdge(0, v)
	}
	p := pattern.MustNew(g)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := p.CanonicalCode()
	runtime.ReadMemStats(&after)
	if kept := after.TotalAlloc - before.TotalAlloc; kept > 4<<10 {
		t.Fatalf("the canonical form of a one-label 8-leaf star allocated %d bytes", kept)
	}
	// The centre takes the last place, so that each leaf's row starts with
	// zeros; the leaves make one orbit, and so do their pairs.
	if p.PlaceOrbit(8) != 8 {
		t.Fatalf("%s: centre place in orbit %d", code, p.PlaceOrbit(8))
	}
	for a := 0; a < 8; a++ {
		if p.PlaceOrbit(a) != 0 || p.PairOrbit(a, 8) != p.PairOrbit(0, 8) {
			t.Fatalf("%s: leaf place %d in orbit %d, pair orbit %d", code, a, p.PlaceOrbit(a), p.PairOrbit(a, 8))
		}
		for b := 0; b < a; b++ {
			if p.PairOrbit(a, b) != p.PairOrbit(0, 1) {
				t.Fatalf("%s: leaf pair %d-%d in pair orbit %d", code, b, a, p.PairOrbit(a, b))
			}
		}
	}
}

// describe lists a graph's nodes with their labels.
func describe(g *graph.Graph) string {
	s := ""
	for _, v := range g.SortedVertices() {
		s += fmt.Sprintf("%d:%d ", v, g.MustLabelOf(v))
	}
	return s
}

// decodeGraphs reads a connected labeled graph of one to seven nodes from
// data — sparse, possibly negative IDs, labels drawn from a pool with
// multi-digit and negative members — and the same graph under another
// numbering. Missing bytes read as zero.
func decodeGraphs(data []byte) (g, renumbered *graph.Graph) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pool := []graph.Label{1, 2, 10, -1, 12, -10}
	k := 1 + next()%7
	nLabels := 1 + next()%len(pool)

	ids := make([]graph.VertexID, k)
	id := graph.VertexID(next()%8 - 4)
	for i := range ids {
		ids[i] = id
		id += graph.VertexID(1 + next()%5)
	}
	// other[i] renumbers node i: a rotation of a differently spaced ID list.
	other := make([]graph.VertexID, k)
	shift, base := next()%k, graph.VertexID(next()%8-2)
	for i := range other {
		other[(i+shift)%k] = base + graph.VertexID(3*i)
	}
	if next()%2 == 1 { // and mirrored, so more than rotations are reached
		for i, j := 0, k-1; i < j; i, j = i+1, j-1 {
			other[i], other[j] = other[j], other[i]
		}
	}

	g, renumbered = graph.New("fuzz"), graph.New("fuzz-renumbered")
	for i := 0; i < k; i++ {
		l := pool[next()%nLabels]
		g.MustAddVertex(ids[i], l)
		renumbered.MustAddVertex(other[i], l)
	}
	addEdge := func(i, j int) {
		if !g.HasEdge(ids[i], ids[j]) {
			g.MustAddEdge(ids[i], ids[j])
			renumbered.MustAddEdge(other[i], other[j])
		}
	}
	for i := 1; i < k; i++ { // a random spanning tree keeps it connected
		addEdge(i, next()%i)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if next()%3 == 0 {
				addEdge(i, j)
			}
		}
	}
	return g, renumbered
}

// TestExtendMatchesReference: Extend reports the same grow steps, in the
// same order, with the same result numbering as the clone-and-renumber
// implementation it replaced — for sparse and negative IDs and for unsorted
// alphabets with repeats — and GrowSteps counts the steps it canonicalises.
func TestExtendMatchesReference(t *testing.T) {
	alphabets := [][]graph.Label{nil, {1}, {10, 2, -1}, {3, 1, 3, 2}}
	rng := gen.NewRNG(15)
	for n := 0; n < 60; n++ {
		data := make([]byte, 40)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		data[0] %= 5 // up to five nodes: results of six keep the oracle quick
		g, _ := decodeGraphs(data)
		p := pattern.MustNew(g)
		for _, labels := range alphabets {
			want, generated := referenceExtend(g, labels)
			got := p.Extend(labels)
			if len(got) != len(want) {
				t.Fatalf("%v %v over %v: %d extensions, reference %d", describe(g), g.Edges(), labels, len(got), len(want))
			}
			if steps := p.GrowSteps(len(labels)); steps != generated {
				t.Errorf("%v %v over %v: GrowSteps = %d, reference generated %d", describe(g), g.Edges(), labels, steps, generated)
			}
			for i, ext := range got {
				ref := want[i]
				if ext.Kind != ref.Kind || ext.From != ref.From || ext.To != ref.To || ext.Label != ref.Label {
					t.Fatalf("%v over %v, extension %d: got %s %d->%d label %d, reference %s %d->%d label %d",
						describe(g), labels, i, ext.Kind, ext.From, ext.To, ext.Label, ref.Kind, ref.From, ref.To, ref.Label)
				}
				if !ext.Result.Graph().Equal(ref.Result) || ext.Result.Graph().Name() != ref.Result.Name() {
					t.Fatalf("%v over %v, extension %d: result %v %v, reference %v %v",
						describe(g), labels, i, describe(ext.Result.Graph()), ext.Result.Edges(), describe(ref.Result), ref.Result.Edges())
				}
				if code := ext.Result.CanonicalCode(); code != referenceCode(ref.Result) {
					t.Fatalf("%v over %v, extension %d: result code %q, reference %q", describe(g), labels, i, code, referenceCode(ref.Result))
				}
			}
		}
	}
}

// TestStepsPlaceTheParent: Steps yields, in order, the GrowSteps grow steps
// that no automorphism of the parent maps onto an earlier one, and keeping
// the first step per code gives Extend's extensions in Extend's order. Every
// step's Code is its pattern's code and its Places the inverse of the
// pattern's CanonicalOrder, and the grown pattern is the parent, numbered as
// the parent, plus the step's Edge — and for a vertex step a new last node
// with the step's label. A yield that returns false ends the steps.
func TestStepsPlaceTheParent(t *testing.T) {
	alphabets := [][]graph.Label{nil, {1}, {10, 2, -1}, {3, 1, 3, 2}}
	rng := gen.NewRNG(43)
	for n := 0; n < 60; n++ {
		data := make([]byte, 40)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		g, _ := decodeGraphs(data)
		p := pattern.MustNew(g)
		nodes := p.Nodes()
		k := len(nodes)
		for _, labels := range alphabets {
			tag := fmt.Sprintf("%v %v over %v", describe(g), g.Edges(), labels)
			var steps []pattern.Step
			p.Steps(labels, func(s pattern.Step) bool {
				steps = append(steps, s)
				return true
			})
			want := unrepeatedSteps(p, labels)
			if len(want) > p.GrowSteps(len(labels)) {
				t.Fatalf("%s: %d unrepeated steps of %d", tag, len(want), p.GrowSteps(len(labels)))
			}
			if len(steps) != len(want) {
				t.Fatalf("%s: %d steps, want %d: %v", tag, len(steps), len(want), want)
			}
			for n, s := range steps {
				if w := want[n]; s.Edge != [2]int{w[0], w[1]} || s.Kind == "vertex" && s.Label != graph.Label(w[2]) {
					t.Fatalf("%s: step %d adds %v label %d, want %v", tag, n, s.Edge, s.Label, w)
				}
			}
			var firsts []pattern.Step
			seen := make(map[string]bool)
			for _, s := range steps {
				q := s.Pattern()
				if q.CanonicalCode() != s.Code {
					t.Fatalf("%s: step code %q, its pattern's %q", tag, s.Code, q.CanonicalCode())
				}
				for a, pos := range q.CanonicalOrder() {
					if s.Places[pos] != a {
						t.Fatalf("%s: step places %v do not invert the order %v", tag, s.Places, q.CanonicalOrder())
					}
				}
				grown := k
				if s.Kind == "vertex" {
					grown++
					if q.LabelOf(pattern.NodeID(k)) != s.Label || s.Edge != [2]int{indexOf(nodes, s.From), k} {
						t.Fatalf("%s: vertex step %+v grows %s", tag, s, q)
					}
				}
				if q.Size() != grown || q.NumEdges() != p.NumEdges()+1 || !q.HasEdge(pattern.NodeID(s.Edge[0]), pattern.NodeID(s.Edge[1])) {
					t.Fatalf("%s: step %+v grows %s", tag, s, q)
				}
				for i := 0; i < k; i++ {
					if q.LabelOf(pattern.NodeID(i)) != p.LabelOf(nodes[i]) {
						t.Fatalf("%s: step %+v relabels position %d", tag, s, i)
					}
					for j := i + 1; j < k; j++ {
						added := s.Edge == [2]int{i, j}
						if q.HasEdge(pattern.NodeID(i), pattern.NodeID(j)) != (p.HasEdge(nodes[i], nodes[j]) || added) {
							t.Fatalf("%s: step %+v moves pair %d-%d", tag, s, i, j)
						}
					}
				}
				if !seen[s.Code] {
					seen[s.Code] = true
					firsts = append(firsts, s)
				}
			}
			exts := p.Extend(labels)
			if len(exts) != len(firsts) {
				t.Fatalf("%s: %d distinct steps, %d extensions", tag, len(firsts), len(exts))
			}
			for i, e := range exts {
				s := firsts[i]
				if e.Kind != s.Kind || e.From != s.From || e.To != s.To || e.Label != s.Label || e.Result.CanonicalCode() != s.Code {
					t.Fatalf("%s: extension %d is %s %d->%d label %d, first step %s %d->%d label %d", tag, i, e.Kind, e.From, e.To, e.Label, s.Kind, s.From, s.To, s.Label)
				}
			}
			if len(steps) > 1 {
				calls := 0
				p.Steps(labels, func(pattern.Step) bool {
					calls++
					return calls < 2
				})
				if calls != 2 {
					t.Fatalf("%s: a yield that said stop at the second step was called %d times", tag, calls)
				}
			}
		}
	}
}

// unrepeatedSteps lists p's grow steps over labels in Steps' order — node
// pairs, then nodes and ascending labels — as {i, j, label} (j = p.Size() for
// a new node), leaving out each step an automorphism of p maps onto an
// earlier one.
func unrepeatedSteps(p *pattern.Pattern, labels []graph.Label) [][3]int {
	nodes := p.Nodes()
	k := len(nodes)
	order := p.CanonicalOrder()
	places := make([]int, k)
	for a, pos := range order {
		places[pos] = a
	}
	var perms [][]int // the automorphisms as position permutations
	for _, sigma := range referenceAutomorphisms(p) {
		pi := make([]int, k)
		for i := range pi {
			pi[i] = order[sigma[places[i]]]
		}
		perms = append(perms, pi)
	}
	earlier := func(a, b [2]int) bool { return a[0] < b[0] || a[0] == b[0] && a[1] < b[1] }
	repeated := func(i, j int) bool {
		for _, pi := range perms {
			img := [2]int{pi[i], j}
			if j < k {
				img = [2]int{min(pi[i], pi[j]), max(pi[i], pi[j])}
			}
			if earlier(img, [2]int{i, j}) {
				return true
			}
		}
		return false
	}
	var out [][3]int
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if !p.HasEdge(nodes[i], nodes[j]) && !repeated(i, j) {
				out = append(out, [3]int{i, j, 0})
			}
		}
	}
	sorted := append([]graph.Label(nil), labels...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	for i := 0; i < k; i++ {
		for _, l := range sorted {
			if !repeated(i, k) {
				out = append(out, [3]int{i, k, int(l)})
			}
		}
	}
	return out
}

// indexOf returns the position of v in nodes.
func indexOf(nodes []pattern.NodeID, v pattern.NodeID) int {
	for i, n := range nodes {
		if n == v {
			return i
		}
	}
	return -1
}

// TestNewCopiesGraph: a pattern is a copy. Mutating the graph it was built
// from, or the graph it hands out, changes neither what it reports nor a
// code it has or has not yet computed.
func TestNewCopiesGraph(t *testing.T) {
	build := func() *graph.Graph {
		return graph.NewBuilder("path").Vertex(0, 1).Vertex(1, 2).Vertex(2, 1).Path(0, 1, 2).MustBuild()
	}
	mutate := func(g *graph.Graph) {
		g.MustAddEdge(0, 2)
		g.MustAddVertex(7, 3)
		g.MustAddEdge(7, 0)
	}
	want := pattern.MustNew(build())

	check := func(t *testing.T, p *pattern.Pattern) {
		t.Helper()
		if p.Size() != 3 || p.NumEdges() != 2 || len(p.Nodes()) != 3 || len(p.Edges()) != 2 {
			t.Errorf("pattern changed with the graph: nodes %v edges %v", p.Nodes(), p.Edges())
		}
		if got := p.CanonicalCode(); got != want.CanonicalCode() {
			t.Errorf("code changed with the graph: %q, want %q", got, want.CanonicalCode())
		}
	}
	t.Run("source graph, code not yet computed", func(t *testing.T) {
		g := build()
		p := pattern.MustNew(g)
		mutate(g)
		check(t, p)
	})
	t.Run("source graph, code cached", func(t *testing.T) {
		g := build()
		p := pattern.MustNew(g)
		_ = p.CanonicalCode()
		mutate(g)
		check(t, p)
	})
	t.Run("graph view", func(t *testing.T) {
		p := pattern.MustNew(build())
		mutate(p.Graph())
		check(t, p)
	})
	t.Run("returned slices", func(t *testing.T) {
		p := pattern.MustNew(build())
		p.Nodes()[0] = 99
		p.Edges()[0] = graph.Edge{U: 5, V: 6}
		check(t, p)
	})
}

// TestSharedPatternsAcrossGoroutines uses the same patterns, codes not yet
// computed, from several goroutines at once; run it under -race.
func TestSharedPatternsAcrossGoroutines(t *testing.T) {
	base := pattern.MustNew(graph.NewBuilder("star").Vertices(1, 0, 1, 2).Vertex(3, 2).Star(3, 0, 1, 2).MustBuild())
	shared := []*pattern.Pattern{base}
	for _, ext := range base.Extend([]graph.Label{1, 2}) {
		shared = append(shared, ext.Result)
	}
	want := make([]string, len(shared))
	for i, p := range shared {
		want[i] = referenceCode(p.Graph())
	}
	fresh := pattern.MustNew(base.Graph()) // no code, no graph view yet
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range shared {
				if got := p.CanonicalCode(); got != want[i] {
					t.Errorf("pattern %d: code %q, want %q", i, got, want[i])
				}
				if n := len(p.Extend([]graph.Label{1})); n == 0 {
					t.Errorf("pattern %d: no extensions", i)
				}
			}
			if fresh.CanonicalCode() != want[0] || fresh.Graph().NumEdges() != 3 || !fresh.IsIsomorphicTo(base) {
				t.Error("fresh pattern disagrees with its source")
			}
		}()
	}
	wg.Wait()
}
