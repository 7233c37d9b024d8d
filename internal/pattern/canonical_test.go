package pattern_test

import (
	"fmt"
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
// code equals the reference and does not depend on how nodes are numbered.
func FuzzCanonicalCode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 1, 1, 1, 0, 1, 2, 0xff})
	f.Add([]byte{6, 1, 2, 3, 4, 5, 0, 9, 9, 9, 9, 9, 9, 0, 0, 1, 2, 3, 0xaa, 0x55, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstReference(t, data) })
}

// checkAgainstReference decodes a graph and a renumbering of it from data
// and compares their codes with each other and with the reference.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	g, renumbered := decodeGraphs(data)
	want := referenceCode(g)
	if got := pattern.MustNew(g).CanonicalCode(); got != want {
		t.Fatalf("graph %v %v: code %q, reference %q", describe(g), g.Edges(), got, want)
	}
	if got := pattern.MustNew(renumbered).CanonicalCode(); got != want {
		t.Fatalf("graph %v %v renumbered to %v %v: code %q, want %q",
			describe(g), g.Edges(), describe(renumbered), renumbered.Edges(), got, want)
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
