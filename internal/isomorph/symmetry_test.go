package isomorph_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// listKey packs a vertex list into a map key; the graphs of these tests keep
// their IDs below 2^16.
func listKey(vs []graph.VertexID) string {
	b := make([]byte, 0, 2*len(vs))
	for _, v := range vs {
		b = append(b, byte(v>>8), byte(v))
	}
	return string(b)
}

// imageKey identifies the instance (Definition 2.1.9) an occurrence is an
// occurrence of — the image subgraph, as its sorted edge list, or its one
// vertex for a single-node pattern — without going through
// isomorph.Instances.
func imageKey(p *pattern.Pattern, nodes []pattern.NodeID, images []graph.VertexID) string {
	if len(nodes) == 1 {
		return listKey(images)
	}
	var edges []graph.VertexID // each edge as u<<16 | v with u < v
	for _, e := range p.Edges() {
		u := images[slices.Index(nodes, e.U)]
		v := images[slices.Index(nodes, e.V)]
		if u > v {
			u, v = v, u
		}
		edges = append(edges, u<<16|v)
	}
	slices.Sort(edges)
	out := ""
	for _, e := range edges {
		out += listKey([]graph.VertexID{e >> 16, e & 0xffff})
	}
	return out
}

// reference is what the reference matcher says about one (graph, pattern)
// pair, in the terms a search under Options.Symmetry is held to.
type reference struct {
	occurrences map[string]bool             // every occurrence, as its image list
	instances   map[string][]graph.VertexID // every instance, by imageKey: the images of one of its occurrences
	domains     []map[graph.VertexID]bool   // domains[i]: the images of p.Nodes()[i]
}

func newReference(g *graph.Graph, p *pattern.Pattern) *reference {
	nodes := p.Nodes()
	ref := &reference{occurrences: map[string]bool{}, instances: map[string][]graph.VertexID{}, domains: make([]map[graph.VertexID]bool, len(nodes))}
	for i := range ref.domains {
		ref.domains[i] = map[graph.VertexID]bool{}
	}
	for _, images := range referenceOccurrences(g, p) {
		ref.occurrences[listKey(images)] = true
		ref.instances[imageKey(p, nodes, images)] = images
		for i, v := range images {
			ref.domains[i][v] = true
		}
	}
	return ref
}

// representatives runs the search under p's symmetry and returns what it
// lent, copied out.
func representatives(snap *graph.Snapshot, p *pattern.Pattern, opts isomorph.Options) [][]graph.VertexID {
	var mu sync.Mutex
	var reps [][]graph.VertexID
	isomorph.EnumerateSnapshotWorkers(snap, p, opts, func(int) func(*isomorph.Occurrence) bool {
		return func(o *isomorph.Occurrence) bool {
			images := o.Images()
			mu.Lock()
			reps = append(reps, images)
			mu.Unlock()
			return true
		}
	})
	return reps
}

// checkRepresentatives holds one symmetry-broken search to the reference:
// its representatives times |Aut(P)| are the reference's occurrence count,
// every one of them is a reference occurrence, every reference instance has
// exactly one, and fanning each representative's images over the node orbits
// reproduces every node's reference domain as a set.
func checkRepresentatives(t *testing.T, where string, ref *reference, p *pattern.Pattern, sym *isomorph.Symmetry, reps [][]graph.VertexID) {
	t.Helper()
	nodes := p.Nodes()
	if got := len(reps) * sym.Order(); got != len(ref.occurrences) {
		t.Fatalf("%s: %d representatives × %d automorphisms = %d, reference matcher found %d occurrences", where, len(reps), sym.Order(), got, len(ref.occurrences))
	}
	seen := map[string]bool{}
	domains := make([]map[graph.VertexID]bool, len(nodes))
	for i := range domains {
		domains[i] = map[graph.VertexID]bool{}
	}
	for _, images := range reps {
		if !ref.occurrences[listKey(images)] {
			t.Fatalf("%s: representative %v is not an occurrence the reference matcher found", where, images)
		}
		key := imageKey(p, nodes, images)
		if seen[key] {
			t.Fatalf("%s: the instance of %v has two representatives", where, images)
		}
		seen[key] = true
		for i := range nodes {
			for j, v := range images {
				if sym.OrbitOf(j) == sym.OrbitOf(i) {
					domains[i][v] = true
				}
			}
		}
	}
	// Distinct, all of them reference instances, and as many as there are.
	if len(seen) != len(ref.instances) {
		t.Fatalf("%s: %d instances represented, reference has %d", where, len(seen), len(ref.instances))
	}
	for i := range nodes {
		if !reflect.DeepEqual(domains[i], ref.domains[i]) {
			t.Fatalf("%s: node %d: orbit fan-out gives domain %v, reference %v", where, nodes[i], domains[i], ref.domains[i])
		}
	}
}

// checkSymmetricSearch runs checkRepresentatives over every given snapshot of
// g and every parallelism. It returns |Aut(P)| and the reference's occurrence
// count, for callers that want to know what they swept.
func checkSymmetricSearch(t *testing.T, where string, g *graph.Graph, snaps []*graph.Snapshot, p *pattern.Pattern, parallelisms []int) (automorphisms, occurrences int) {
	t.Helper()
	ref := newReference(g, p)
	sym := isomorph.NewSymmetry(p)
	if got := len(ref.instances) * sym.Order(); got != len(ref.occurrences) {
		t.Fatalf("%s: reference has %d instances × %d automorphisms but %d occurrences", where, len(ref.instances), sym.Order(), len(ref.occurrences))
	}
	for _, snap := range snaps {
		shards := snap.NumShards()
		for _, par := range parallelisms {
			opts := isomorph.Options{Parallelism: par, Symmetry: sym}
			checkRepresentatives(t, fmt.Sprintf("%s shards=%d par=%d", where, shards, par), ref, p, sym, representatives(snap, p, opts))
		}
	}
	return sym.Order(), len(ref.occurrences)
}

// exhaustiveGraph is the one fixed graph of the exhaustive sweeps: twelve
// vertices with sparse IDs, label classes of six, four and two so that even a
// one-label five-node pattern occurs, and half of all edges present so every
// shape does.
func exhaustiveGraph() *graph.Graph {
	g := graph.New("fixed")
	rng := gen.NewRNG(20261003)
	const n = 12
	id := func(i int) graph.VertexID { return graph.VertexID(3*i + 1) }
	for i, l := range []graph.Label{1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3} {
		g.MustAddVertex(id(i), l)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(2) == 0 {
				g.MustAddEdge(id(i), id(j))
			}
		}
	}
	return g
}

// sweepSmallPatterns calls visit with every connected labeled pattern of up to
// five nodes over three labels (the sweep of pattern's
// TestCanonicalCodeMatchesReference, five-node patterns under the labelings in
// pool order) and returns how many there were.
func sweepSmallPatterns(visit func(where string, p *pattern.Pattern)) (patterns int) {
	labels := []graph.Label{1, 2, 3}
	for k := 1; k <= 5; k++ {
		pairs := k * (k - 1) / 2
		labelings := 1
		for i := 0; i < k; i++ {
			labelings *= len(labels)
		}
		for mask := 0; mask < 1<<pairs; mask++ {
			for lab := 0; lab < labelings; lab++ {
				pg := graph.New("exhaustive")
				inPoolOrder := true
				for i, rest, prev := 0, lab, 0; i < k; i, rest = i+1, rest/len(labels) {
					l := rest % len(labels)
					inPoolOrder = inPoolOrder && l >= prev
					prev = l
					pg.MustAddVertex(graph.VertexID(i), labels[l])
				}
				if k == 5 && !inPoolOrder {
					continue
				}
				bit := 0
				for i := 0; i < k; i++ {
					for j := i + 1; j < k; j++ {
						if mask>>bit&1 == 1 {
							pg.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
						}
						bit++
					}
				}
				p, err := pattern.New(pg)
				if err != nil {
					continue // not connected
				}
				visit(fmt.Sprintf("k=%d mask=%b labeling=%d", k, mask, lab), p)
				patterns++
			}
		}
	}
	return patterns
}

// TestSymmetricSearchExhaustive holds the search under Options.Symmetry to the
// reference matcher on every pattern of sweepSmallPatterns over
// exhaustiveGraph.
func TestSymmetricSearchExhaustive(t *testing.T) {
	g := exhaustiveGraph()
	snaps := []*graph.Snapshot{sharded(g, 1), sharded(g, 2), sharded(g, 7)}
	symmetric, occurring := 0, 0
	patterns := sweepSmallPatterns(func(where string, p *pattern.Pattern) {
		aut, occs := checkSymmetricSearch(t, where, g, snaps, p, []int{1, 4})
		if aut > 1 {
			symmetric++
		}
		if occs > 0 {
			occurring++
		}
	})
	t.Logf("%d connected labeled patterns, %d with a non-trivial automorphism group, %d occurring in the graph", patterns, symmetric, occurring)
	if symmetric == 0 || occurring < patterns/2 {
		t.Fatalf("sweep is vacuous: %d of %d patterns symmetric, %d occurring", symmetric, patterns, occurring)
	}
}

// TestSymmetryOrbitsAndConstraints pins the symmetry value and the explained
// plan on the shapes the streaming workloads are made of: a one-label star has
// the center alone and the leaves in one orbit, six automorphisms and a chain
// of bounds down the leaves; a labeled path has nothing to break.
func TestSymmetryOrbitsAndConstraints(t *testing.T) {
	star := starPattern()
	sym := isomorph.NewSymmetry(star)
	if sym.Order() != 6 || sym.NumOrbits() != 2 {
		t.Fatalf("3-leaf star: %d automorphisms, %d orbits; want 6 and 2", sym.Order(), sym.NumOrbits())
	}
	var orbits []int
	for i := range star.Nodes() {
		orbits = append(orbits, sym.OrbitOf(i))
	}
	if !reflect.DeepEqual(orbits, []int{0, 1, 1, 1}) {
		t.Fatalf("3-leaf star orbits by node position = %v, want [0 1 1 1]", orbits)
	}
	snap := gen.BarabasiAlbert(300, 3, gen.UniformLabels{K: 3}, 13).Freeze()
	ex := isomorph.Explain(snap, star, isomorph.Options{Symmetry: sym})
	if ex.Automorphisms != 6 || ex.Orbits != 2 {
		t.Fatalf("explained star: %d automorphisms, %d orbits; want 6 and 2:\n%s", ex.Automorphisms, ex.Orbits, ex)
	}
	bounds := 0
	for d, s := range ex.Steps {
		for _, b := range s.Below {
			if b >= d {
				t.Fatalf("depth %d is bounded by depth %d, which is not matched before it:\n%s", d, b, ex)
			}
		}
		bounds += len(s.Below)
	}
	// The first leaf matched bounds the other two, the second the third.
	if bounds != 3 {
		t.Fatalf("explained star carries %d bounds, want 3:\n%s", bounds, ex)
	}

	path := pattern.MustNew(graph.NewBuilder("path").Vertex(0, 1).Vertex(1, 2).Vertex(2, 3).Path(0, 1, 2).MustBuild())
	sym = isomorph.NewSymmetry(path)
	if sym.Order() != 1 || sym.NumOrbits() != 3 {
		t.Fatalf("labeled path: %d automorphisms, %d orbits; want 1 and 3", sym.Order(), sym.NumOrbits())
	}
	for _, s := range isomorph.Explain(snap, path, isomorph.Options{Symmetry: sym}).Steps {
		if len(s.Below) != 0 {
			t.Fatalf("asymmetric path has a bound at node %d: %v", s.Node, s.Below)
		}
	}
}

// TestEnumCountersCountRepresentatives pins the two emit counters: a search
// under the star's symmetry publishes one representative per instance and six
// occurrences for each, a full search publishes every occurrence as its own
// representative, both arrive at the same occurrence total, and the sums are
// the same for one worker and four.
func TestEnumCountersCountRepresentatives(t *testing.T) {
	snap := sharded(gen.BarabasiAlbert(400, 3, gen.UniformLabels{K: 2}, 7), 4)
	p := starPattern()
	sym := isomorph.NewSymmetry(p)
	published := func(opts isomorph.Options) (reps, occs uint64) {
		reps0 := obs.Default.CounterValue("repro_enum_representatives_total")
		occs0 := obs.Default.CounterValue("repro_enum_occurrences_total")
		representatives(snap, p, opts)
		return obs.Default.CounterValue("repro_enum_representatives_total") - reps0,
			obs.Default.CounterValue("repro_enum_occurrences_total") - occs0
	}
	fullReps, fullOccs := published(isomorph.Options{Parallelism: 1})
	if fullOccs == 0 || fullReps != fullOccs {
		t.Fatalf("full search published %d representatives for %d occurrences; want them equal and non-zero", fullReps, fullOccs)
	}
	for _, par := range []int{1, 4} {
		reps, occs := published(isomorph.Options{Parallelism: par, Symmetry: sym})
		if occs != fullOccs || reps*uint64(sym.Order()) != occs {
			t.Fatalf("par=%d under symmetry: %d representatives, %d occurrences; want %d occurrences at %d per representative", par, reps, occs, fullOccs, sym.Order())
		}
	}
}

// FuzzRepresentatives holds the search under Options.Symmetry to the
// reference matcher on a small labeled graph and a connected pattern of two
// to four nodes decoded from the fuzz input (the layout of core's
// decodeGraphAndPattern): sequentially and at the decoded parallelism, on one
// shard and on as many as there are workers.
func FuzzRepresentatives(f *testing.F) {
	f.Add([]byte{})
	// A one-label triangle in K4: 24 occurrences, 4 instances.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// A one-label 3-leaf star in a 5-leaf star, two workers: 60 occurrences,
	// 10 instances.
	f.Add([]byte{0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, par := decodeGraphAndPattern(data)
		snaps := []*graph.Snapshot{sharded(g, 1), sharded(g, par)}
		checkSymmetricSearch(t, fmt.Sprintf("graph %v pattern %v", g.Edges(), p), g, snaps, p, []int{1, par})
	})
}

// decodeGraphAndPattern reads from data a connected pattern of two to four
// nodes, an enumeration parallelism of one to four, and a data graph of two
// to thirteen vertices, all over one to three labels: a label-count byte, a
// parallelism byte, a pattern (size, labels, a spanning tree — node i hangs
// off an earlier node — and a mask of extra edges), then the graph (size,
// labels, and every remaining byte pair as an edge). Missing bytes read as
// zero.
func decodeGraphAndPattern(data []byte) (*graph.Graph, *pattern.Pattern, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	labels := 1 + next()%3
	par := 1 + next()%4

	k := 2 + next()%3
	pb := graph.NewBuilder("fuzz-pattern")
	for i := 0; i < k; i++ {
		pb.Vertex(graph.VertexID(i), graph.Label(1+next()%labels))
	}
	for i := 1; i < k; i++ {
		pb.Edge(graph.VertexID(next()%i), graph.VertexID(i))
	}
	pg := pb.MustBuild()
	extra := next()
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if extra&1 == 1 && !pg.HasEdge(graph.VertexID(i), graph.VertexID(j)) {
				pg.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
			}
			extra >>= 1
		}
	}

	n := 2 + next()%12
	g := graph.New("fuzz-graph")
	for i := 0; i < n; i++ {
		g.MustAddVertex(graph.VertexID(i), graph.Label(1+next()%labels))
	}
	for len(data) >= 2 {
		u, v := graph.VertexID(next()%n), graph.VertexID(next()%n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g, pattern.MustNew(pg), par
}
