package isomorph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// orbitFirsts returns the first position of every node orbit of sym, the
// positions a delta pass pins.
func orbitFirsts(p *pattern.Pattern, sym *isomorph.Symmetry) []int {
	var firsts []int
	for i := range p.Nodes() {
		if sym.OrbitOf(i) == len(firsts) {
			firsts = append(firsts, i)
		}
	}
	return firsts
}

// dirtyIndexes translates a dirty vertex set into snap's sorted dense indexes.
func dirtyIndexes(t *testing.T, snap *graph.Snapshot, dirty []graph.VertexID) []int32 {
	t.Helper()
	var indexes []int32
	for _, v := range dirty {
		x, ok := snap.IndexOf(v)
		if !ok {
			t.Fatalf("dirty vertex %d is not in the snapshot", v)
		}
		indexes = append(indexes, x)
	}
	slices.Sort(indexes)
	return indexes
}

// pinnedSearches is one pattern's compiled pinned searches, as a delta pass
// keeps them: under the pattern's symmetry at the first position of every node
// orbit, and full (no symmetry) at every position.
type pinnedSearches struct {
	orbits, full []*isomorph.PinnedSearch
}

// compilePinned compiles p's pinned searches once, ordered from snap's
// statistics; checkPinnedSearch runs them on any snapshot of the same graph.
func compilePinned(snap *graph.Snapshot, p *pattern.Pattern, sym *isomorph.Symmetry) pinnedSearches {
	var ps pinnedSearches
	for _, root := range orbitFirsts(p, sym) {
		ps.orbits = append(ps.orbits, isomorph.NewPinnedSearch(snap, p, sym, root))
	}
	for j := range p.Nodes() {
		ps.full = append(ps.full, isomorph.NewPinnedSearch(snap, p, nil, j))
	}
	return ps
}

// checkPinnedSearch holds the compiled pinned searches to the reference on
// one snapshot and one dirty set D, in the terms a delta pass relies on. Under
// the pattern's symmetry, pinned at the first position of every node orbit in
// turn, the search emits exactly one representative per (instance I,
// x ∈ V(I) ∩ D) — rooted at x, and a reference occurrence — so keeping those
// whose root is the smallest dirty index among their images leaves every
// instance touching D exactly once and no other. Without a symmetry, pinned
// at any position j, it emits every occurrence f with f(j) ∈ D. The searches
// may have been compiled on, and already run on, any snapshot of the graph.
// It returns the number of instances touching D.
func checkPinnedSearch(t *testing.T, where string, ref *reference, snap *graph.Snapshot, p *pattern.Pattern, ps pinnedSearches, dirty []graph.VertexID) int {
	t.Helper()
	nodes := p.Nodes()
	D := dirtyIndexes(t, snap, dirty)

	touching, wantEmits := map[string]bool{}, 0
	for key, images := range ref.instances {
		n := 0
		for _, v := range images {
			if slices.Contains(dirty, v) {
				n++
			}
		}
		if n > 0 {
			touching[key] = true
			wantEmits += n
		}
	}

	counted, emits := map[string]bool{}, 0
	for _, search := range ps.orbits {
		root := search.Root()
		perRoot := map[string]bool{} // instance key + root image: one representative each
		search.Run(snap, D, func(o *isomorph.Occurrence) bool {
			emits++
			images, x := o.Images(), o.IndexAt(root)
			if !ref.occurrences[listKey(images)] {
				t.Fatalf("%s D=%v root %d: emitted %v, which is not an occurrence the reference matcher found", where, dirty, root, images)
			}
			if _, isDirty := slices.BinarySearch(D, x); !isDirty {
				t.Fatalf("%s D=%v root %d: emitted %v, whose root image is not a dirty vertex", where, dirty, root, images)
			}
			key := imageKey(p, nodes, images)
			if at := key + listKey(images[root:root+1]); perRoot[at] {
				t.Fatalf("%s D=%v root %d: the instance of %v was emitted twice at one root image", where, dirty, root, images)
			} else {
				perRoot[at] = true
			}
			for i := range nodes {
				if y := o.IndexAt(i); y < x {
					if _, isDirty := slices.BinarySearch(D, y); isDirty {
						return true // a smaller dirty image counts this instance
					}
				}
			}
			if counted[key] {
				t.Fatalf("%s D=%v root %d: the instance of %v was counted twice", where, dirty, root, images)
			}
			counted[key] = true
			return true
		})
	}
	if emits != wantEmits {
		t.Fatalf("%s D=%v: the pinned searches emitted %d representatives, the reference has %d (instance, dirty vertex) incidences", where, dirty, emits, wantEmits)
	}
	if len(counted) != len(touching) {
		t.Fatalf("%s D=%v: %d instances counted, %d reference instances touch D", where, dirty, len(counted), len(touching))
	}
	for key := range counted {
		if !touching[key] {
			t.Fatalf("%s D=%v: counted an instance that is not a reference instance touching D", where, dirty)
		}
	}

	for j, search := range ps.full {
		want := 0
		for key := range ref.occurrences {
			v := graph.VertexID(key[2*j])<<8 | graph.VertexID(key[2*j+1])
			if slices.Contains(dirty, v) {
				want++
			}
		}
		got := 0
		search.Run(snap, D, func(o *isomorph.Occurrence) bool {
			if !ref.occurrences[listKey(o.Images())] {
				t.Fatalf("%s D=%v node %d: the full pinned search emitted %v, not a reference occurrence", where, dirty, nodes[j], o.Images())
			}
			got++
			return true
		})
		if got != want {
			t.Fatalf("%s D=%v: the full search pinned at node %d emitted %d occurrences, the reference maps it into D %d times", where, dirty, nodes[j], got, want)
		}
	}
	return len(touching)
}

// TestPinnedSearchExhaustive runs checkPinnedSearch for every pattern of
// sweepSmallPatterns over exhaustiveGraph, on one, two and seven shards, with
// random dirty sets of one, two and five vertices — every run by the same
// searches, compiled once per pattern on the seven-shard snapshot, so each is
// rebound across shard geometries and dirty sets as a delta pass rebinds it.
func TestPinnedSearchExhaustive(t *testing.T) {
	g := exhaustiveGraph()
	snaps := []*graph.Snapshot{sharded(g, 1), sharded(g, 2), sharded(g, 7)}
	vertices := g.SortedVertices()
	rng := gen.NewRNG(23)
	touched := 0
	patterns := sweepSmallPatterns(func(where string, p *pattern.Pattern) {
		ref := newReference(g, p)
		ps := compilePinned(snaps[2], p, isomorph.NewSymmetry(p))
		for _, snap := range snaps {
			for _, size := range []int{1, 2, 5} {
				var dirty []graph.VertexID
				for len(dirty) < size {
					if v := vertices[rng.Intn(len(vertices))]; !slices.Contains(dirty, v) {
						dirty = append(dirty, v)
					}
				}
				touched += checkPinnedSearch(t, fmt.Sprintf("%s shards=%d", where, snap.NumShards()), ref, snap, p, ps, dirty)
			}
		}
	})
	t.Logf("%d connected labeled patterns, %d (pattern, snapshot, dirty set) instances counted", patterns, touched)
	if touched < patterns {
		t.Fatalf("sweep is vacuous: %d instances touched a dirty set over %d patterns", touched, patterns)
	}
}

// TestPinnedSearchAtAHub is the regression test for the rule a delta pass must
// not settle for: a one-label 4-leaf star has 24 automorphisms, all of which
// fix the centre, so a search pinned at the centre under the stabiliser's
// bounds emits each of the C(d, 4) stars through a dirty hub of degree d once —
// where "first dirty position wins, divide by |Aut|" would emit d(d-1)(d-2)(d-3).
func TestPinnedSearchAtAHub(t *testing.T) {
	const degree = 13
	b := graph.NewBuilder("hub").Vertex(100, 1)
	for i := 0; i < degree; i++ {
		b.Vertex(graph.VertexID(i), 1).Edge(100, graph.VertexID(i))
	}
	// A few edges among the leaves, so the hub is a leaf of other stars too.
	g := b.Edge(0, 1).Edge(0, 2).Edge(0, 3).Edge(1, 2).MustBuild()
	star := pattern.MustNew(graph.NewBuilder("star4").Vertices(1, 0, 1, 2, 3, 4).Star(0, 1, 2, 3, 4).MustBuild())
	sym := isomorph.NewSymmetry(star)
	if sym.Order() != 24 || sym.NumOrbits() != 2 {
		t.Fatalf("4-leaf star: %d automorphisms, %d orbits; want 24 and 2", sym.Order(), sym.NumOrbits())
	}
	ref := newReference(g, star)
	for _, shards := range []int{1, 4} {
		snap := sharded(g, shards)
		ps := compilePinned(snap, star, sym)
		through := checkPinnedSearch(t, fmt.Sprintf("hub shards=%d", shards), ref, snap, star, ps, []graph.VertexID{100})
		centred := 0
		ps.orbits[0].Run(snap, dirtyIndexes(t, snap, []graph.VertexID{100}), func(*isomorph.Occurrence) bool {
			centred++
			return true
		})
		if want := degree * (degree - 1) * (degree - 2) * (degree - 3) / 24; centred != want {
			t.Fatalf("shards=%d: pinned at the hub as centre the search emitted %d stars, want C(%d, 4) = %d", shards, centred, degree, want)
		}
		if through <= centred {
			t.Fatalf("shards=%d: %d stars through the hub, %d centred on it: the hub should be a leaf of some", shards, through, centred)
		}
	}
}

// TestPinnedSearchReusedAcrossSnapshots is the regression test for a compiled
// search that keeps what it memoized on one snapshot into a run on another: a
// delta refresh runs its plus and minus passes at the same dirty dense index
// on two snapshots, and a memoized candidate run is keyed by that index. B is
// A with an edge added at the one dirty vertex, so the vertex keeps its index
// and its neighbour row changes; each search is compiled on A, then run on B,
// A and B again, and every run must deliver what a search freshly compiled on
// that snapshot does — by occurrence for the full search, by (instance, root
// image) under the symmetry.
func TestPinnedSearchReusedAcrossSnapshots(t *testing.T) {
	const dirty = graph.VertexID(4)
	g := graph.NewBuilder("reuse").Vertices(1, 1, 2, 3, 4, 5, 6, 7, 8).
		Edge(3, 4).Edge(4, 5).Edge(5, 6).Edge(4, 6).Edge(5, 7).Edge(7, 8).Edge(1, 2).MustBuild()
	a := g.Freeze()
	g.MustAddEdge(dirty, 7)
	b := g.Freeze()
	D := dirtyIndexes(t, a, []graph.VertexID{dirty})
	if !slices.Equal(D, dirtyIndexes(t, b, []graph.VertexID{dirty})) {
		t.Fatalf("the dirty vertex moved between the snapshots; the case needs it at one index")
	}

	// keys runs search on snap and returns what it delivered, sorted.
	keys := func(search *isomorph.PinnedSearch, snap *graph.Snapshot, p *pattern.Pattern, sym *isomorph.Symmetry) []string {
		var out []string
		search.Run(snap, D, func(o *isomorph.Occurrence) bool {
			images := o.Images()
			if sym == nil {
				out = append(out, listKey(images))
			} else {
				root := search.Root()
				out = append(out, imageKey(p, p.Nodes(), images)+listKey(images[root:root+1]))
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
			roots := orbitFirsts(p, sym)
			if s == nil {
				roots = []int{0, 1, 2}
			}
			for _, root := range roots {
				fresh := map[*graph.Snapshot][]string{}
				for _, snap := range []*graph.Snapshot{a, b} {
					fresh[snap] = keys(isomorph.NewPinnedSearch(snap, p, s, root), snap, p, s)
				}
				grew = grew || len(fresh[b]) > len(fresh[a])
				search := isomorph.NewPinnedSearch(a, p, s, root)
				for step, snap := range []*graph.Snapshot{b, a, b} {
					if got, want := keys(search, snap, p, s), fresh[snap]; !slices.Equal(got, want) {
						t.Fatalf("%v symmetry=%v pinned at %d, run %d: the search compiled on A delivered %d, a fresh one %d: %q vs %q",
							p, s != nil, root, step, len(got), len(want), got, want)
					}
				}
			}
		}
	}
	if !grew {
		t.Fatalf("no run on B delivered more than on A; the case does not change the dirty vertex's neighbourhood")
	}
}

// FuzzPinnedRepresentatives runs checkPinnedSearch on a small labeled graph
// and a connected pattern of two to four nodes decoded from the fuzz input as
// in FuzzRepresentatives, after two bytes that pick the dirty set: bit i set
// makes the graph's vertex i dirty. The searches are compiled once, on the
// decoded shard count, and run on one shard and on that many.
func FuzzPinnedRepresentatives(f *testing.F) {
	f.Add([]byte{})
	// A one-label triangle in K4, vertices 0 and 2 dirty.
	f.Add([]byte{5, 0, 0, 0, 1, 0, 0, 0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// A one-label 3-leaf star in a 5-leaf star, two shards, the centre and a
	// leaf dirty.
	f.Add([]byte{3, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		mask := 0
		for i := 0; i < 2 && len(data) > 0; i++ {
			mask |= int(data[0]) << (8 * i)
			data = data[1:]
		}
		g, p, shards := decodeGraphAndPattern(data)
		var dirty []graph.VertexID
		for i, v := range g.SortedVertices() {
			if mask>>i&1 == 1 {
				dirty = append(dirty, v)
			}
		}
		ref := newReference(g, p)
		snaps := []*graph.Snapshot{sharded(g, 1), sharded(g, shards)}
		ps := compilePinned(snaps[1], p, isomorph.NewSymmetry(p))
		for _, snap := range snaps {
			checkPinnedSearch(t, fmt.Sprintf("graph %v pattern %v shards=%d", g.Edges(), p, snap.NumShards()), ref, snap, p, ps, dirty)
		}
	})
}
