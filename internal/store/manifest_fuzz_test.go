package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// FuzzReadManifest feeds Open manifest bytes the process did not write, in a
// directory that holds the segment files of a written two-shard store — and
// whose parent holds them too, so a manifest that leads Open out of the
// directory finds valid segments there. Open must return an error or a store,
// never panic; a store it returns names its segments by plain file names, and
// its snapshot has the vertices the manifest says.
func FuzzReadManifest(f *testing.F) {
	g := graph.New("fuzz")
	for v := 0; v < 10; v++ {
		g.MustAddVertex(graph.VertexID(2*v+1), graph.Label(1+v%2))
	}
	for v := 0; v < 10; v++ {
		g.MustAddEdge(graph.VertexID(2*v+1), graph.VertexID(2*((v+1)%10)+1))
	}
	template := f.TempDir()
	if err := Write(g.FreezeSharded(graph.FreezeOptions{Shards: 2}), template); err != nil {
		f.Fatalf("Write: %v", err)
	}
	manifest, err := os.ReadFile(filepath.Join(template, ManifestFile))
	if err != nil {
		f.Fatal(err)
	}
	man, err := readManifest(template)
	if err != nil {
		f.Fatal(err)
	}
	segments := make(map[string][]byte, len(man.Segments))
	for _, seg := range man.Segments {
		if segments[seg.File], err = os.ReadFile(filepath.Join(template, seg.File)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(manifest)
	f.Add([]byte{})
	f.Add([]byte("null"))
	// What checkManifest rejects, each an edit of the written manifest.
	for _, edit := range []func(m *Manifest){
		func(m *Manifest) { m.Vertices = -1 },
		func(m *Manifest) { m.ShardShift = 63 },
		func(m *Manifest) { m.ShardShift = 62 },
		func(m *Manifest) { m.Segments[0].File = "../" + m.Segments[0].File },
		func(m *Manifest) { m.Segments[1].File = "/" + m.Segments[1].File },
		func(m *Manifest) { m.Segments[0].Neighbors = -8 },
		func(m *Manifest) { m.Segments[1].Bytes = -1 },
	} {
		m := man
		m.Segments = append([]Segment(nil), man.Segments...)
		edit(&m)
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		outside := t.TempDir()
		dir := filepath.Join(outside, "store")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range segments {
			for _, at := range []string{outside, dir} {
				if err := os.WriteFile(filepath.Join(at, name), body, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			return
		}
		defer st.Close()
		got := st.Manifest()
		for _, seg := range got.Segments {
			if filepath.Base(seg.File) != seg.File {
				t.Fatalf("opened a store whose segment file %q is not a plain name", seg.File)
			}
		}
		if n := st.Snapshot().NumVertices(); n != got.Vertices {
			t.Fatalf("snapshot has %d vertices, manifest says %d", n, got.Vertices)
		}
	})
}
