package graph

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refGraph is the map-based graph this package kept before a Graph became a
// base snapshot plus an overlay: a label map, adjacency lists, an edge set, a
// label index and the insertion order, every mutation applied to each of
// them. FuzzGraphMatchesReference holds Graph to it, and refFreeze, its
// from-scratch CSR build, to every freeze.
type refGraph struct {
	labels    map[VertexID]Label
	adjacency map[VertexID][]VertexID
	edges     map[Edge]struct{}
	byLabel   map[Label][]VertexID
	order     []VertexID
}

func newRefGraph() *refGraph {
	return &refGraph{labels: map[VertexID]Label{}, adjacency: map[VertexID][]VertexID{}, edges: map[Edge]struct{}{}, byLabel: map[Label][]VertexID{}}
}

func (r *refGraph) addVertex(v VertexID, l Label) error {
	if old, ok := r.labels[v]; ok {
		if old != l {
			return fmt.Errorf("vertex %d has label %d", v, old)
		}
		return nil
	}
	r.labels[v] = l
	r.byLabel[l] = append(r.byLabel[l], v)
	r.order = append(r.order, v)
	r.adjacency[v] = nil
	return nil
}

func (r *refGraph) addEdge(u, v VertexID) error {
	_, okU := r.labels[u]
	_, okV := r.labels[v]
	e := Edge{U: u, V: v}.Normalize()
	if _, dup := r.edges[e]; u == v || !okU || !okV || dup {
		return fmt.Errorf("cannot add %v", e)
	}
	r.edges[e] = struct{}{}
	r.adjacency[u] = append(r.adjacency[u], v)
	r.adjacency[v] = append(r.adjacency[v], u)
	return nil
}

func (r *refGraph) removeEdge(u, v VertexID) error {
	e := Edge{U: u, V: v}.Normalize()
	if _, ok := r.edges[e]; !ok {
		return fmt.Errorf("cannot remove %v", e)
	}
	delete(r.edges, e)
	r.adjacency[u] = removeOne(r.adjacency[u], v)
	r.adjacency[v] = removeOne(r.adjacency[v], u)
	return nil
}

func (r *refGraph) removeVertex(v VertexID) error {
	l, ok := r.labels[v]
	if !ok {
		return fmt.Errorf("cannot remove %d", v)
	}
	for _, w := range slices.Clone(r.adjacency[v]) {
		r.removeEdge(v, w)
	}
	delete(r.labels, v)
	delete(r.adjacency, v)
	if r.byLabel[l] = removeOne(r.byLabel[l], v); len(r.byLabel[l]) == 0 {
		delete(r.byLabel, l)
	}
	r.order = removeOne(r.order, v)
	return nil
}

func (r *refGraph) sortedVertices() []VertexID {
	out := slices.Clone(r.order)
	slices.Sort(out)
	return out
}

func (r *refGraph) neighbors(v VertexID) []VertexID {
	out := make([]VertexID, len(r.adjacency[v]))
	copy(out, r.adjacency[v])
	slices.Sort(out)
	return out
}

func (r *refGraph) edgeList() []Edge {
	out := make([]Edge, 0, len(r.edges))
	for e := range r.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].U < out[j].U || out[i].U == out[j].U && out[i].V < out[j].V })
	return out
}

// graph builds a Graph with no base holding the reference's vertices, in
// its insertion order, and edges.
func (r *refGraph) graph(name string) *Graph {
	g := New(name)
	for _, v := range r.order {
		g.MustAddVertex(v, r.labels[v])
	}
	for _, e := range r.edgeList() {
		g.MustAddEdge(e.U, e.V)
	}
	return g
}

// refFreeze is the reference's CSR build at 1<<shift vertices per shard:
// IDs sorted, an ID map, every row translated and sorted, and the columns
// cut into blocks of 1<<blockShift rows.
func refFreeze(r *refGraph, shift uint) []shard {
	ids := r.sortedVertices()
	indexOf := make(map[VertexID]int32, len(ids))
	for i, v := range ids {
		indexOf[v] = int32(i)
	}
	size := 1 << shift
	var out []shard
	for lo := 0; lo < len(ids); lo += size {
		hi := min(lo+size, len(ids))
		sh := shard{lo: int32(lo), ids: slices.Clone(ids[lo:hi]), labels: make([]Label, hi-lo), rowPtr: make([]int32, hi-lo+1), byLabel: map[Label][]int32{}}
		var col []int32
		for i := lo; i < hi; i++ {
			l := r.labels[ids[i]]
			sh.labels[i-lo] = l
			sh.byLabel[l] = append(sh.byLabel[l], int32(i))
			start := len(col)
			for _, w := range r.adjacency[ids[i]] {
				col = append(col, indexOf[w])
			}
			slices.Sort(col[start:])
			sh.rowPtr[i-lo+1] = int32(len(col))
		}
		sh.cols = blockTable(sh.rowPtr, col)
		out = append(out, sh)
	}
	return out
}

// requireMatchesReference compares every read accessor of g with the
// reference's. HasEdge is asked of every pair of IDs up to one past the
// largest, unless wide: then, to keep a graph of hundreds of vertices cheap
// to check after every op, only of each vertex's pairs with its reference
// neighbours, the IDs next to those, and the IDs within two of its own.
func requireMatchesReference(t *testing.T, where string, g *Graph, r *refGraph, wide bool) {
	t.Helper()
	if g.NumVertices() != len(r.labels) || g.NumEdges() != len(r.edges) {
		t.Fatalf("%s: |V|, |E| = %d, %d, want %d, %d", where, g.NumVertices(), g.NumEdges(), len(r.labels), len(r.edges))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", where, err)
	}
	if !slices.Equal(g.Vertices(), r.order) || !slices.Equal(g.SortedVertices(), r.sortedVertices()) {
		t.Fatalf("%s: vertices %v, want %v", where, g.Vertices(), r.order)
	}
	if !slices.Equal(g.Edges(), r.edgeList()) {
		t.Fatalf("%s: edges %v, want %v", where, g.Edges(), r.edgeList())
	}
	maxID := VertexID(0)
	if len(r.order) > 0 {
		maxID = slices.Max(r.order)
	}
	for v := VertexID(0); v <= maxID+1; v++ {
		l, ok := g.LabelOf(v)
		wl, wok := r.labels[v]
		if l != wl || ok != wok || g.HasVertex(v) != wok {
			t.Fatalf("%s: LabelOf(%d) = %d, %v, want %d, %v", where, v, l, ok, wl, wok)
		}
		if got, want := g.Neighbors(v), r.neighbors(v); !slices.Equal(got, want) || g.Degree(v) != len(want) {
			t.Fatalf("%s: Neighbors(%d) = %v (degree %d), want %v", where, v, got, g.Degree(v), want)
		}
		checkPair := func(w VertexID) {
			_, want := r.edges[Edge{U: v, V: w}.Normalize()]
			if g.HasEdge(v, w) != want {
				t.Fatalf("%s: HasEdge(%d, %d) = %v", where, v, w, !want)
			}
		}
		if !wide {
			for w := VertexID(0); w <= maxID+1; w++ {
				checkPair(w)
			}
			continue
		}
		for w := v - 2; w <= v+2; w++ {
			checkPair(w)
		}
		for _, w := range r.adjacency[v] {
			checkPair(w - 1)
			checkPair(w)
			checkPair(w + 1)
		}
	}
	hist := map[Label]int{}
	for l, vs := range r.byLabel {
		hist[l] = len(vs)
	}
	if !reflect.DeepEqual(g.LabelHistogram(), hist) {
		t.Fatalf("%s: LabelHistogram %v, want %v", where, g.LabelHistogram(), hist)
	}
	var labels []Label
	for l := range hist {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	if got := g.Labels(); !slices.Equal(got, labels) {
		t.Fatalf("%s: Labels %v, want %v", where, got, labels)
	}
	for l := Label(0); l < 4; l++ {
		want := slices.Clone(r.byLabel[l])
		slices.Sort(want)
		if got := g.VerticesWithLabel(l); !slices.Equal(got, want) {
			t.Fatalf("%s: VerticesWithLabel(%d) = %v, want %v", where, l, got, want)
		}
	}
	h := r.graph(g.Name())
	c := g.Clone()
	if !g.Equal(h) || !h.Equal(g) || !c.Equal(h) || !g.Equal(c) {
		t.Fatalf("%s: Equal disagrees with the reference (or the clone)", where)
	}
	if !reflect.DeepEqual(g.ConnectedComponents(), h.ConnectedComponents()) ||
		!reflect.DeepEqual(g.DegreeStatistics(), h.DegreeStatistics()) || g.String() != h.String() {
		t.Fatalf("%s: components, degree statistics or String differ from the reference's", where)
	}
}

// shardModel tracks, for one freeze granularity, what the documented dirty
// rules say about each shard of the last snapshot frozen at it: an edge
// dirties the shards owning its endpoints, a vertex insert or removal at a
// dense position dirties every shard from that position's on, and one that
// is not at the end shifts the indexes every clean shard refers to.
type shardModel struct {
	prev    *Snapshot
	dirty   map[int]bool
	suffix  int
	shifted bool
}

func (m *shardModel) reset(s *Snapshot) {
	*m = shardModel{prev: s, dirty: map[int]bool{}, suffix: -1}
}

func (m *shardModel) markFrom(k int) {
	if m.suffix < 0 || k < m.suffix {
		m.suffix = k
	}
}

func (m *shardModel) edge(u, v VertexID) {
	for _, w := range []VertexID{u, v} {
		if m.prev != nil {
			if i, ok := m.prev.IndexOf(w); ok {
				m.dirty[m.prev.ShardOf(i)] = true
			}
		}
	}
}

func (m *shardModel) vertexAdded(v VertexID) {
	if m.prev == nil {
		return
	}
	p := m.prev.insertPos(v)
	if int(p) < m.prev.n {
		m.shifted = true
	}
	m.markFrom(m.prev.ShardOf(p))
}

func (m *shardModel) vertexRemoved(v VertexID) {
	if m.prev == nil {
		return
	}
	if i, ok := m.prev.IndexOf(v); ok {
		if int(i) < m.prev.n-1 {
			m.shifted = true
		}
		m.markFrom(m.prev.ShardOf(i))
	}
}

// clean reports whether shard k of the next freeze may share its arrays
// with the previous snapshot's. A shift remaps a clean shard's neighbour
// references into fresh blocks, unless it has none: then nothing changed
// and the shard keeps its block table.
func (m *shardModel) clean(k int) bool {
	return m.prev != nil && k < m.prev.NumShards() && !m.dirty[k] && (m.suffix < 0 || k < m.suffix) &&
		(!m.shifted || m.prev.shards[k].numCols() == 0)
}

// externalCopy returns an external snapshot over fresh copies of s's arrays
// and a function that overwrites those copies, as unmapping a store's
// segments would.
func externalCopy(t *testing.T, s *Snapshot) (*Snapshot, func()) {
	t.Helper()
	ext := make([]ExternalShard, len(s.shards))
	for k, sh := range s.shards {
		byLabel := map[Label][]int32{}
		for l, idx := range sh.byLabel {
			byLabel[l] = slices.Clone(idx)
		}
		ext[k] = ExternalShard{IDs: slices.Clone(sh.ids), Labels: slices.Clone(sh.labels), RowPtr: slices.Clone(sh.rowPtr), ColIdx: sh.appendCols(nil), ByLabel: byLabel}
	}
	snap, err := NewExternalSnapshot(s.Name(), s.shardShift, s.NumEdges(), ext, nil)
	if err != nil {
		t.Fatal(err)
	}
	return snap, func() {
		for _, x := range ext {
			for i := range x.IDs {
				x.IDs[i] = -7
			}
			for i := range x.Labels {
				x.Labels[i] = -7
			}
			for i := range x.ColIdx {
				x.ColIdx[i] = 0
			}
			for _, idx := range x.ByLabel {
				for i := range idx {
					idx[i] = 0
				}
			}
		}
	}
}

// FuzzGraphMatchesReference decodes an op sequence — vertices added at low,
// mid-range and new-maximum IDs, vertices removed, edges added and removed,
// freezes at two shard granularities, restores through FromSnapshot from a
// heap and from an external snapshot — and applies it to a Graph and to the
// map-based reference alike. After every op every read accessor must equal
// the reference's; every freeze must be byte-identical to the reference's
// from-scratch build, and SharesShard must hold for exactly the shards the
// dirty rules leave clean; a restore must build nothing and, from the heap,
// return its snapshot itself; and the first mutation after a freeze must
// rebase the graph onto a clean snapshot, leaving an overlay of only what it
// touched.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add([]byte{9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, false)
	f.Add([]byte{12, 7, 0, 4, 3, 4, 9, 8, 0, 1, 5, 3, 6, 9, 1, 8, 2, 7, 3, 4, 7, 9, 2, 8, 5, 2, 0, 7, 1}, false)
	f.Add([]byte{20, 8, 0, 8, 1, 3, 200, 4, 17, 1, 9, 9, 0, 8, 0, 5, 5, 8, 0, 3, 4, 8, 1, 6, 6, 6, 6, 9, 1, 3, 1, 7, 0}, false)
	f.Add([]byte{30, 7, 0, 9, 0, 7, 0, 0, 0, 2, 3, 7, 0, 3, 11, 7, 0, 1, 5, 1, 9, 7, 1, 4, 4, 5, 9, 7, 1, 3, 40, 8, 1}, false)
	for _, seed := range blockSeeds() {
		f.Add(seed, true)
	}
	f.Fuzz(checkGraphOps)
}

// blockSeeds are op sequences on wide graphs that patch column blocks at
// their edges. Their first byte b starts the graph with 64+3b vertices.
// Until a vertex is added or removed, pick's byte is a vertex's dense index;
// 4 u v adds an edge, 3 v removes a vertex, 7 freezes into 16-vertex shards
// and 8 into 128-vertex shards of two blocks.
func blockSeeds() [][]byte {
	// 199 vertices: shard 0 is blocks [0, 64) and [64, 128), shard 1 the
	// full block [128, 192) and the partial [192, 199). Edges join each
	// block's first and last rows, then rows on either side of a block
	// bound and of a shard bound.
	edges := []byte{45, 8, 4, 0, 63, 4, 64, 127, 8, 4, 128, 191, 4, 192, 198, 8,
		4, 63, 64, 4, 127, 128, 8, 7, 4, 0, 198, 7, 8}
	// 100 vertices: one 128-vertex shard whose second block is partial, and
	// seven 16-vertex shards, the last of four; a mid-range removal in
	// between shifts every later index.
	partial := []byte{12, 8, 7, 4, 99, 64, 4, 98, 2, 8, 7, 3, 50, 8, 7, 4, 0, 98, 8, 7}
	// 70 vertices: index 66 in the partial second block becomes a hub, three
	// edges a batch, until its row holds more columns than its whole block
	// did; the same block is patched in every batch.
	hub := []byte{2, 8}
	for k := byte(0); k < 12; k++ {
		hub = append(hub, 4, 66, 10+3*k, 4, 66, 11+3*k, 4, 66, 12+3*k, 7+k%2)
	}
	return [][]byte{edges, partial, hub}
}

// checkGraphOps is FuzzGraphMatchesReference's body. The first byte picks
// the starting graph's size. A narrow graph starts with up to 32 vertices and
// freezes into 4- and 16-vertex shards. A wide one starts with 64 to 235
// vertices and freezes into 16-vertex shards, smaller than one column block,
// and 128-vertex shards of two blocks, the last maybe partial.
func checkGraphOps(t *testing.T, data []byte, wide bool) {
	if len(data) == 0 {
		return
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	first := next()
	n0, grans := first%33, []FreezeOptions{{ShardSize: 4}, {ShardSize: 16}}
	if wide {
		n0, grans = 64+3*(first%58), []FreezeOptions{{ShardSize: 16}, {ShardSize: 128}}
	}
	g, r := New("fuzz"), newRefGraph()
	for i := 0; i < n0; i++ {
		v := VertexID(2*i + 1) // gaps below, between and above for later inserts
		g.MustAddVertex(v, Label(i%3))
		r.addVertex(v, Label(i%3))
		if i > 0 {
			w := VertexID(2*((i*7+3)%i) + 1)
			if i%4 != 0 && w != v {
				g.MustAddEdge(v, w)
				r.addEdge(v, w)
			}
		}
	}
	models := make([]shardModel, len(grans))
	for k := range models {
		models[k].reset(nil)
	}
	pick := func() VertexID {
		vs := r.sortedVertices()
		if len(vs) == 0 {
			return 0
		}
		return vs[next()%len(vs)]
	}
	// freeze freezes g at granularity k and holds the snapshot to the
	// reference's build and SharesShard to the dirty rules.
	freeze := func(k int, where string) *Snapshot {
		s := g.FreezeSharded(grans[k])
		requireSameShards(t, where, s.shards, refFreeze(r, s.shardShift))
		if s.NumVertices() != len(r.labels) || s.NumEdges() != len(r.edges) || s.Name() != g.Name() {
			t.Fatalf("%s: snapshot totals %d/%d %q", where, s.NumVertices(), s.NumEdges(), s.Name())
		}
		for sk := 0; sk < s.NumShards(); sk++ {
			if shared, clean := s.SharesShard(models[k].prev, sk), models[k].clean(sk); shared != clean {
				t.Fatalf("%s: SharesShard(%d) = %v, the dirty rules say clean = %v", where, sk, shared, clean)
			}
		}
		models[k].reset(s)
		return s
	}
	lastWasFreeze := false
	var lastFreeze *Snapshot
	for op := 0; len(data) > 0 && op < 64; op++ {
		code := next() % 10
		where := fmt.Sprintf("op %d (code %d)", op, code)
		baseBefore := g.base
		mutation := code < 7
		switch code {
		case 0, 1, 2: // add a vertex: low, mid-range or new-maximum ID
			vs := r.sortedVertices()
			var v VertexID
			switch {
			case code == 0 || len(vs) == 0:
				v = VertexID(next() % 3)
			case code == 1:
				v = VertexID(next() % int(vs[len(vs)-1]+1))
			default:
				v = vs[len(vs)-1] + 1 + VertexID(next()%3)
			}
			l := Label(next() % 4)
			_, had := r.labels[v]
			errG, errR := g.AddVertex(v, l), r.addVertex(v, l)
			if (errG == nil) != (errR == nil) {
				t.Fatalf("%s: AddVertex(%d, %d) = %v, reference %v", where, v, l, errG, errR)
			}
			if !had && errR == nil {
				for k := range models {
					models[k].vertexAdded(v)
				}
			}
		case 3: // remove a vertex
			v := pick()
			nbs := r.neighbors(v)
			errG, errR := g.RemoveVertex(v), r.removeVertex(v)
			if (errG == nil) != (errR == nil) {
				t.Fatalf("%s: RemoveVertex(%d) = %v, reference %v", where, v, errG, errR)
			}
			if errR == nil {
				for k := range models {
					for _, w := range nbs {
						models[k].edge(v, w)
					}
					models[k].vertexRemoved(v)
				}
			}
		case 4, 5: // add an edge
			u, v := pick(), pick()
			errG, errR := g.AddEdge(u, v), r.addEdge(u, v)
			if (errG == nil) != (errR == nil) {
				t.Fatalf("%s: AddEdge(%d, %d) = %v, reference %v", where, u, v, errG, errR)
			}
			if errR == nil {
				for k := range models {
					models[k].edge(u, v)
				}
			}
		case 6: // remove an edge
			es := r.edgeList()
			if len(es) == 0 {
				mutation = false
				break
			}
			e := es[next()%len(es)]
			if err := g.RemoveEdge(e.U, e.V); err != nil {
				t.Fatalf("%s: RemoveEdge(%v): %v", where, e, err)
			}
			r.removeEdge(e.U, e.V)
			for k := range models {
				models[k].edge(e.U, e.V)
			}
		case 7, 8: // freeze at one of the two granularities
			lastFreeze = freeze(code-7, where)
		case 9: // restore through FromSnapshot, from the heap or externally
			k := next() % 2
			s := freeze(k, where)
			external := next()%2 == 1
			src, scribble := s, func() {}
			if external {
				src, scribble = externalCopy(t, s)
			}
			g = FromSnapshot(src)
			scribble()
			r.order = r.sortedVertices()
			got := g.FreezeSharded(grans[k])
			if g.shardBuilds.Load() != 0 || (!external && got != s) {
				t.Fatalf("%s: freezing a restored graph built %d shards (same snapshot: %v)", where, g.shardBuilds.Load(), got == s)
			}
			requireSameShards(t, where+": restored", got.shards, refFreeze(r, got.shardShift))
			for m := range models {
				models[m].reset(nil)
			}
			models[k].reset(got)
			lastFreeze = got
		}
		if mutation && lastWasFreeze {
			// The op rebased the graph onto the freshest clean snapshot,
			// unless its base was still clean; either way the overlay
			// holds no more than the op touched.
			if g.base != lastFreeze && g.base != baseBefore {
				t.Fatalf("%s: base is neither the last freeze nor the previous base", where)
			}
			if code >= 4 && (len(g.adjacency) > 2 || len(g.labels) > 0) {
				t.Fatalf("%s: an edge op after a freeze left %d overlay rows and %d overlay vertices", where, len(g.adjacency), len(g.labels))
			}
		}
		if testing.Verbose() {
			t.Logf("%s: V=%v E=%v base=%p", where, r.sortedVertices(), r.edgeList(), g.base)
		}
		lastWasFreeze = code >= 7
		requireMatchesReference(t, where, g, r, wide)
	}
}

// TestGraphMatchesReference runs a batch of random op sequences on narrow
// graphs and then a batch on wide ones, so the reference check holds in
// every plain test run.
func TestGraphMatchesReference(t *testing.T) {
	state := uint64(7)
	for i := 0; i < 250; i++ {
		data := make([]byte, 120)
		for k := range data {
			state = state*6364136223846793005 + 1442695040888963407
			data[k] = byte(state >> 56)
		}
		name, wide := fmt.Sprint(i), false
		if i >= 200 {
			name, wide = fmt.Sprint("wide/", i-200), true
		}
		t.Run(name, func(t *testing.T) {
			checkGraphOps(t, data, wide)
		})
	}
}
