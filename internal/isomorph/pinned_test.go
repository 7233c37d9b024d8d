package isomorph_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// edgeKeys translates data edges into snap's sorted EdgeKeys, as a delta pass
// is handed its batch's mutated edges. An edge whose ends snap has need not
// be an edge of snap: a run skips it.
func edgeKeys(t *testing.T, snap *graph.Snapshot, edges []graph.Edge) []uint64 {
	t.Helper()
	var keys []uint64
	for _, e := range edges {
		u, okU := snap.IndexOf(e.U)
		v, okV := snap.IndexOf(e.V)
		if !okU || !okV {
			t.Fatalf("the ends of edge %v are not in the snapshot", e)
		}
		keys = append(keys, isomorph.EdgeKey(u, v))
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// patternArcs returns p's edges as (a, b) position pairs with a < b.
func patternArcs(p *pattern.Pattern) [][2]int {
	nodes := p.Nodes()
	var arcs [][2]int
	for _, e := range p.Edges() {
		a, b := slices.Index(nodes, e.U), slices.Index(nodes, e.V)
		arcs = append(arcs, [2]int{min(a, b), max(a, b)})
	}
	return arcs
}

// pinnedSearches is one pattern's compiled pinned searches, as a delta pass
// keeps them: under the pattern's symmetry at the first arc of every edge
// orbit, and full (no symmetry) at every edge.
type pinnedSearches struct {
	orbits, full []*isomorph.PinnedSearch
}

// compilePinned compiles p's pinned searches once, ordered from snap's
// statistics; checkPinnedSearch runs them on any snapshot of the same graph.
func compilePinned(snap *graph.Snapshot, p *pattern.Pattern, sym *isomorph.Symmetry) pinnedSearches {
	var ps pinnedSearches
	for _, arc := range sym.EdgeOrbits(p) {
		ps.orbits = append(ps.orbits, isomorph.NewPinnedSearch(snap, p, sym, arc[0], arc[1]))
	}
	for _, arc := range patternArcs(p) {
		ps.full = append(ps.full, isomorph.NewPinnedSearch(snap, p, nil, arc[0], arc[1]))
	}
	return ps
}

// checkPinnedSearch holds the compiled pinned searches to the reference on
// one snapshot and one set E of pinned data edges, in the terms a delta pass
// relies on. Under the pattern's symmetry, pinned at the first arc of every
// edge orbit in turn, the searches emit exactly one representative per
// (instance I, data edge e ∈ E that I maps a pattern edge onto) — pinned at e,
// and a reference occurrence — so keeping those pinned at the smallest key
// among the pinned edges they use leaves every instance using E exactly once
// and no other. Without a symmetry, pinned at any edge's arc, a search emits
// every occurrence that maps the edge onto one of E, either way round. The
// searches may have been compiled on, and already run on, any snapshot of the
// graph. It returns the number of instances using E.
func checkPinnedSearch(t *testing.T, where string, ref *reference, snap *graph.Snapshot, p *pattern.Pattern, ps pinnedSearches, pinned []graph.Edge) int {
	t.Helper()
	nodes := p.Nodes()
	arcs := patternArcs(p)
	E := edgeKeys(t, snap, pinned)
	// uses returns the keys of E the images map a pattern edge onto.
	uses := func(images []graph.VertexID) []uint64 {
		var keys []uint64
		for _, arc := range arcs {
			x, _ := snap.IndexOf(images[arc[0]])
			y, _ := snap.IndexOf(images[arc[1]])
			if k := isomorph.EdgeKey(x, y); slices.Contains(E, k) {
				keys = append(keys, k)
			}
		}
		return keys
	}

	using, wantEmits := map[string]bool{}, 0
	for key, images := range ref.instances {
		if n := len(uses(images)); n > 0 {
			using[key] = true
			wantEmits += n
		}
	}

	counted, met, emits := map[string]bool{}, map[string]bool{}, 0
	for _, search := range ps.orbits {
		a, b := search.Arc()
		search.Run(snap, E, func(o *isomorph.Occurrence) bool {
			emits++
			images := o.Images()
			if !ref.occurrences[listKey(images)] {
				t.Fatalf("%s E=%v arc (%d, %d): emitted %v, which is not an occurrence the reference matcher found", where, pinned, a, b, images)
			}
			at := isomorph.EdgeKey(o.IndexAt(a), o.IndexAt(b))
			if !slices.Contains(E, at) {
				t.Fatalf("%s E=%v arc (%d, %d): emitted %v, whose arc image is not a pinned edge", where, pinned, a, b, images)
			}
			key := imageKey(p, nodes, images)
			if pair := fmt.Sprint(key, at); met[pair] {
				t.Fatalf("%s E=%v arc (%d, %d): the instance of %v was emitted twice at one pinned edge", where, pinned, a, b, images)
			} else {
				met[pair] = true
			}
			if slices.Min(uses(images)) < at {
				return true // a smaller pinned edge counts this instance
			}
			if counted[key] {
				t.Fatalf("%s E=%v arc (%d, %d): the instance of %v was counted twice", where, pinned, a, b, images)
			}
			counted[key] = true
			return true
		})
	}
	if emits != wantEmits {
		t.Fatalf("%s E=%v: the pinned searches emitted %d representatives, the reference has %d (instance, pinned edge) incidences", where, pinned, emits, wantEmits)
	}
	if len(counted) != len(using) {
		t.Fatalf("%s E=%v: %d instances counted, %d reference instances use E", where, pinned, len(counted), len(using))
	}
	for key := range counted {
		if !using[key] {
			t.Fatalf("%s E=%v: counted an instance that is not a reference instance using E", where, pinned)
		}
	}

	for j, search := range ps.full {
		want := 0
		for key := range ref.occurrences {
			image := func(i int) graph.VertexID { return graph.VertexID(key[2*i])<<8 | graph.VertexID(key[2*i+1]) }
			x, _ := snap.IndexOf(image(arcs[j][0]))
			y, _ := snap.IndexOf(image(arcs[j][1]))
			if slices.Contains(E, isomorph.EdgeKey(x, y)) {
				want++
			}
		}
		got, seen := 0, map[string]bool{}
		search.Run(snap, E, func(o *isomorph.Occurrence) bool {
			key := listKey(o.Images())
			if !ref.occurrences[key] || seen[key] {
				t.Fatalf("%s E=%v edge %v: the full pinned search emitted %v, not a reference occurrence or a second time", where, pinned, arcs[j], o.Images())
			}
			seen[key] = true
			got++
			return true
		})
		if got != want {
			t.Fatalf("%s E=%v: the full search pinned at edge %v emitted %d occurrences, the reference maps the edge into E %d times", where, pinned, arcs[j], got, want)
		}
	}
	return len(using)
}

// TestPinnedSearchExhaustive runs checkPinnedSearch for every pattern of
// sweepSmallPatterns over exhaustiveGraph, on one, two and seven shards, with
// random sets of one, two and five pinned edges, the largest with a pair of
// vertices that is no edge beside them (a batch's edge added and removed
// again) — every run by the same searches, compiled once per pattern on the
// seven-shard snapshot, so each is rebound across shard geometries and edge
// sets as a delta pass rebinds it.
func TestPinnedSearchExhaustive(t *testing.T) {
	g := exhaustiveGraph()
	snaps := []*graph.Snapshot{sharded(g, 1), sharded(g, 2), sharded(g, 7)}
	edges := g.Edges()
	vertices := g.SortedVertices()
	rng := gen.NewRNG(23)
	used := 0
	patterns := sweepSmallPatterns(func(where string, p *pattern.Pattern) {
		ref := newReference(g, p)
		ps := compilePinned(snaps[2], p, isomorph.NewSymmetry(p))
		for _, snap := range snaps {
			for _, size := range []int{1, 2, 5} {
				var pinned []graph.Edge
				for len(pinned) < size {
					if e := edges[rng.Intn(len(edges))]; !slices.Contains(pinned, e) {
						pinned = append(pinned, e)
					}
				}
				if size == 5 {
					for {
						u, v := vertices[rng.Intn(len(vertices))], vertices[rng.Intn(len(vertices))]
						if u != v && !g.HasEdge(u, v) {
							pinned = append(pinned, graph.Edge{U: u, V: v})
							break
						}
					}
				}
				used += checkPinnedSearch(t, fmt.Sprintf("%s shards=%d", where, snap.NumShards()), ref, snap, p, ps, pinned)
			}
		}
	})
	t.Logf("%d connected labeled patterns, %d (pattern, snapshot, edge set) instances counted", patterns, used)
	if used < patterns {
		t.Fatalf("sweep is vacuous: %d instances used a pinned edge over %d patterns", used, patterns)
	}
}

// TestPinnedSearchAtAHub is the regression test for the rule a delta pass must
// not settle for: a one-label 4-leaf star has 24 automorphisms, and the 6 of
// them that fix the centre and one leaf are all a search pinned at a
// centre–leaf arc has left to break, so pinned at a hub–leaf edge of a hub of
// degree d it emits each of the C(d − 1, 3) stars through that edge once —
// where "first pinned position wins, divide by |Aut|" would emit
// (d − 1)(d − 2)(d − 3), and a search pinned at the hub vertex alone the
// C(d, 4) stars centred there.
func TestPinnedSearchAtAHub(t *testing.T) {
	const degree = 13
	const hub, leaf = graph.VertexID(100), graph.VertexID(5)
	b := graph.NewBuilder("hub").Vertex(hub, 1)
	for i := 0; i < degree; i++ {
		b.Vertex(graph.VertexID(i), 1).Edge(hub, graph.VertexID(i))
	}
	// A few edges among the leaves, so the hub is a leaf of other stars too —
	// of one through the pinned edge, centred on its leaf.
	g := b.Edge(0, 1).Edge(0, 2).Edge(0, 3).Edge(1, 2).Edge(5, 6).Edge(5, 7).Edge(5, 8).MustBuild()
	star := pattern.MustNew(graph.NewBuilder("star4").Vertices(1, 0, 1, 2, 3, 4).Star(0, 1, 2, 3, 4).MustBuild())
	sym := isomorph.NewSymmetry(star)
	if sym.Order() != 24 || len(sym.EdgeOrbits(star)) != 1 {
		t.Fatalf("4-leaf star: %d automorphisms, %d edge orbits; want 24 and 1", sym.Order(), len(sym.EdgeOrbits(star)))
	}
	ref := newReference(g, star)
	pinned := []graph.Edge{{U: hub, V: leaf}}
	for _, shards := range []int{1, 4} {
		snap := sharded(g, shards)
		ps := compilePinned(snap, star, sym)
		through := checkPinnedSearch(t, fmt.Sprintf("hub shards=%d", shards), ref, snap, star, ps, pinned)
		if want := (degree - 1) * (degree - 2) * (degree - 3) / 6; through < want {
			t.Fatalf("shards=%d: %d stars use the hub–leaf edge, want at least the C(%d, 3) = %d centred on the hub", shards, through, degree-1, want)
		}
		centred := 0
		ps.orbits[0].Run(snap, edgeKeys(t, snap, pinned), func(o *isomorph.Occurrence) bool {
			if o.ImageAt(0) == hub {
				centred++
			}
			return true
		})
		if want := (degree - 1) * (degree - 2) * (degree - 3) / 6; centred != want {
			t.Fatalf("shards=%d: pinned at the hub–leaf edge the search emitted %d stars centred on the hub, want C(%d, 3) = %d", shards, centred, degree-1, want)
		}
		if through <= centred {
			t.Fatalf("shards=%d: %d stars through the edge, %d centred on the hub: the leaf should be the centre of some", shards, through, centred)
		}
	}
}

// TestPinnedSearchReusedAcrossSnapshots is the regression test for a compiled
// search that keeps what it memoized on one snapshot into a run on another: a
// delta refresh runs its plus and minus passes at the same dense indexes on
// two snapshots, and a memoized candidate run is keyed by an index. B is A
// with an edge added at a vertex of the pinned edge, so the vertex keeps its
// index and its neighbour row changes; each search is compiled on A, then run
// on B, A and B again, and every run must deliver what a search freshly
// compiled on that snapshot does — by occurrence for the full search, by
// (instance, pinned edge) under the symmetry.
func TestPinnedSearchReusedAcrossSnapshots(t *testing.T) {
	pinned := []graph.Edge{{U: 4, V: 5}}
	g := graph.NewBuilder("reuse").Vertices(1, 1, 2, 3, 4, 5, 6, 7, 8).
		Edge(3, 4).Edge(4, 5).Edge(5, 6).Edge(4, 6).Edge(5, 7).Edge(7, 8).Edge(1, 2).MustBuild()
	a := g.Freeze()
	g.MustAddEdge(4, 7)
	b := g.Freeze()
	E := edgeKeys(t, a, pinned)
	if !slices.Equal(E, edgeKeys(t, b, pinned)) {
		t.Fatalf("the pinned edge moved between the snapshots; the case needs it at one place")
	}

	// keys runs search on snap and returns what it delivered, sorted.
	keys := func(search *isomorph.PinnedSearch, snap *graph.Snapshot, p *pattern.Pattern, sym *isomorph.Symmetry) []string {
		var out []string
		search.Run(snap, E, func(o *isomorph.Occurrence) bool {
			images := o.Images()
			if sym == nil {
				out = append(out, listKey(images))
			} else {
				x, y := search.Arc()
				out = append(out, imageKey(p, p.Nodes(), images)+fmt.Sprint(isomorph.EdgeKey(o.IndexAt(x), o.IndexAt(y))))
			}
			return true
		})
		slices.Sort(out)
		return out
	}
	path := pattern.MustNew(graph.NewBuilder("path3").Vertices(1, 0, 1, 2).Edge(0, 1).Edge(1, 2).MustBuild())
	grew := false
	for _, p := range []*pattern.Pattern{path, trianglePattern(1)} {
		sym := isomorph.NewSymmetry(p)
		for _, s := range []*isomorph.Symmetry{nil, sym} {
			arcs := sym.EdgeOrbits(p)
			if s == nil {
				arcs = patternArcs(p)
			}
			for _, arc := range arcs {
				fresh := map[*graph.Snapshot][]string{}
				for _, snap := range []*graph.Snapshot{a, b} {
					fresh[snap] = keys(isomorph.NewPinnedSearch(snap, p, s, arc[0], arc[1]), snap, p, s)
				}
				grew = grew || len(fresh[b]) > len(fresh[a])
				search := isomorph.NewPinnedSearch(a, p, s, arc[0], arc[1])
				for step, snap := range []*graph.Snapshot{b, a, b} {
					if got, want := keys(search, snap, p, s), fresh[snap]; !slices.Equal(got, want) {
						t.Fatalf("%v symmetry=%v pinned at %v, run %d: the search compiled on A delivered %d, a fresh one %d: %q vs %q",
							p, s != nil, arc, step, len(got), len(want), got, want)
					}
				}
			}
		}
	}
	if !grew {
		t.Fatalf("no run on B delivered more than on A; the case does not change the pinned edge's neighbourhood")
	}
}

// TestPinnedSearchRetainsNoSnapshot is the regression test for a compiled
// search that keeps the snapshot of its last run: a delta context holds one
// search per edge orbit for as long as it tracks its pattern, so a search that
// kept its run's snapshot through its lent occurrence, its plan or its
// consumer would keep every tracked pattern's last minus-pass snapshot alive.
// Once Run has returned and the caller has dropped the snapshot, a finalizer
// on it must run while the search is still reachable.
func TestPinnedSearchRetainsNoSnapshot(t *testing.T) {
	collected := make(chan struct{})
	search := runOnDroppedSnapshot(t, collected)
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the snapshot of a finished run was never collected; the pinned search still references it")
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(search)
}

// runOnDroppedSnapshot compiles a pinned search, runs it on every edge of a
// snapshot of a graph it builds, and returns the search with nothing else of
// the run left reachable; closing collected is the snapshot's finalizer.
func runOnDroppedSnapshot(t *testing.T, collected chan struct{}) *isomorph.PinnedSearch {
	g := gen.BarabasiAlbert(200, 3, gen.UniformLabels{K: 2}, 3)
	snap := g.FreezeSharded(graph.FreezeOptions{Shards: 2})
	g.DropSnapshots()
	runtime.SetFinalizer(snap, func(*graph.Snapshot) { close(collected) })
	p := starPattern()
	search := isomorph.NewPinnedSearch(snap, p, isomorph.NewSymmetry(p), 0, 1)
	all := edgeKeys(t, snap, g.Edges())
	emitted := 0
	search.Run(snap, all, func(*isomorph.Occurrence) bool {
		emitted++
		return true
	})
	if emitted == 0 {
		t.Fatal("the run emitted nothing; the test would not exercise a lent occurrence")
	}
	return search
}

// FuzzPinnedRepresentatives runs checkPinnedSearch on a small labeled graph
// and a connected pattern of two to four nodes decoded from the fuzz input as
// in FuzzRepresentatives, after two bytes that pick the pinned edges: bit i
// set pins the i-th edge of the graph in Edges() order. The searches are
// compiled once, on the decoded shard count, and run on one shard and on that
// many.
func FuzzPinnedRepresentatives(f *testing.F) {
	f.Add([]byte{})
	// A one-label triangle in K4, edges 0 and 2 pinned.
	f.Add([]byte{5, 0, 0, 0, 1, 0, 0, 0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// A one-label 3-leaf star in a 5-leaf star, two shards, two of its edges
	// pinned.
	f.Add([]byte{3, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	// A one-label path of three in a path of five, its middle edges pinned:
	// the path's edge orbit is not self-reverse.
	f.Add([]byte{6, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		mask := 0
		for i := 0; i < 2 && len(data) > 0; i++ {
			mask |= int(data[0]) << (8 * i)
			data = data[1:]
		}
		g, p, shards := decodeGraphAndPattern(data)
		var pinned []graph.Edge
		for i, e := range g.Edges() {
			if mask>>i&1 == 1 {
				pinned = append(pinned, e)
			}
		}
		ref := newReference(g, p)
		snaps := []*graph.Snapshot{sharded(g, 1), sharded(g, shards)}
		ps := compilePinned(snaps[1], p, isomorph.NewSymmetry(p))
		for _, snap := range snaps {
			checkPinnedSearch(t, fmt.Sprintf("graph %v pattern %v shards=%d", g.Edges(), p, snap.NumShards()), ref, snap, p, ps, pinned)
		}
	})
}
