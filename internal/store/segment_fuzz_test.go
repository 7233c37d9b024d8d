package store

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// FuzzOpenSegment feeds Open segment bytes the process did not write, under a
// checksum that matches them — what a buggy writer leaves behind. A
// two-shard store of a small three-label graph is the template; the first
// fuzz byte picks a segment and the rest overwrite it from its first byte
// (the tail keeps the written bytes, so the layout's size still matches the
// manifest), and the manifest is rewritten with the segment's recomputed
// checksum. Open must return an error or a valid snapshot, never panic: on
// a valid one every neighbour and every label-index entry is a dense index
// of the snapshot, the label index of a shard holds only its own vertices,
// and searching an edge and a path over it does not panic either.
func FuzzOpenSegment(f *testing.F) {
	g := graph.New("fuzz")
	for v := 0; v < 12; v++ {
		g.MustAddVertex(graph.VertexID(3*v+1), graph.Label(1+v%3))
	}
	for v := 0; v < 12; v++ {
		g.MustAddEdge(graph.VertexID(3*v+1), graph.VertexID(3*((v+1)%12)+1))
		if v%3 == 0 {
			g.MustAddEdge(graph.VertexID(3*v+1), graph.VertexID(3*((v+5)%12)+1))
		}
	}
	template := f.TempDir()
	if err := Write(g.FreezeSharded(graph.FreezeOptions{Shards: 2}), template); err != nil {
		f.Fatalf("Write: %v", err)
	}
	man, err := readManifest(template)
	if err != nil {
		f.Fatal(err)
	}
	segments := make([][]byte, len(man.Segments))
	for k, seg := range man.Segments {
		if segments[k], err = os.ReadFile(filepath.Join(template, seg.File)); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(k)}, segments[k]...))
	}
	// Shard 0's first rowPtr entry raised: the rows no longer start at 0.
	lay := layoutFor(man.Segments[0].Vertices, man.Segments[0].Neighbors, man.Segments[0].Labels)
	bad := append([]byte{0}, segments[0]...)
	bad[1+lay.rowPtr] = 3
	f.Add(bad)
	// Shard 0's second row offset raised past the third: the rows decrease.
	bad = append([]byte{0}, segments[0]...)
	bad[1+lay.rowPtr+4] = 0xff
	f.Add(bad)
	// Shard 1's first neighbour pointed past the snapshot.
	lay = layoutFor(man.Segments[1].Vertices, man.Segments[1].Neighbors, man.Segments[1].Labels)
	bad = append([]byte{1}, segments[1]...)
	bad[1+lay.colIdx] = 200
	f.Add(bad)
	// Shard 1's label index naming a vertex of shard 0.
	bad = append([]byte{1}, segments[1]...)
	copy(bad[1+lay.labelIdx:], []byte{0, 0, 0, 0})
	f.Add(bad)
	pats := []*pattern.Pattern{
		pattern.SingleEdge(1, 2),
		pattern.MustNew(graph.NewBuilder("path").Vertex(0, 1).Vertex(1, 2).Vertex(2, 3).Path(0, 1, 2).MustBuild()),
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0]) % len(segments)
		seg := append([]byte(nil), segments[k]...)
		copy(seg, data[1:])
		dir := t.TempDir()
		m := man
		m.Segments = append([]Segment(nil), man.Segments...)
		m.Segments[k].CRC32C = crc32.Checksum(seg, castagnoli)
		for i, s := range m.Segments {
			body := segments[i]
			if i == k {
				body = seg
			}
			if err := os.WriteFile(filepath.Join(dir, s.File), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		manifest, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), manifest, 0o644); err != nil {
			t.Fatal(err)
		}

		st, err := Open(dir, Options{})
		if err != nil {
			return
		}
		defer st.Close()
		snap := st.Snapshot()
		n := int32(snap.NumVertices())
		for x := int32(0); x < n; x++ {
			for _, y := range snap.NeighborsAt(x) {
				if y < 0 || y >= n {
					t.Fatalf("vertex %d has neighbour %d, outside the snapshot's %d vertices", x, y, n)
				}
			}
			lo, hi := snap.ShardRange(snap.ShardOf(x))
			for _, y := range snap.ShardIndexesWithLabel(snap.ShardOf(x), snap.LabelAt(x)) {
				if y < lo || y >= hi {
					t.Fatalf("shard %d's label index holds %d, outside its [%d,%d)", snap.ShardOf(x), y, lo, hi)
				}
			}
		}
		for _, p := range pats {
			isomorph.EnumerateSnapshot(snap, p, isomorph.Options{Parallelism: 1})
		}
	})
}
