package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestReusedSegmentBufferWritesFreshBytes encodes every shard of a
// four-shard snapshot twice: into a fresh buffer, and into one whose array
// is larger than the segment and filled with 0xff, as a buffer a commit
// kept from a larger segment would be. The files and descriptors must be
// identical, padding included.
func TestReusedSegmentBufferWritesFreshBytes(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, gen.UniformLabels{K: 3}, 5)
	snap := g.FreezeSharded(graph.FreezeOptions{Shards: 4})
	dir := t.TempDir()
	dirty := bytes.Repeat([]byte{0xff}, 1<<20)
	for k := 0; k < snap.NumShards(); k++ {
		var fresh []byte
		want, err := writeSegment(dir, snap, k, "fresh.seg", &fresh)
		if err != nil {
			t.Fatal(err)
		}
		reused := dirty[:7]
		got, err := writeSegment(dir, snap, k, "reused.seg", &reused)
		if err != nil {
			t.Fatal(err)
		}
		if &reused[:1][0] != &dirty[0] {
			t.Fatalf("shard %d: a segment that fits the buffer reallocated it", k)
		}
		wantBytes, _ := os.ReadFile(filepath.Join(dir, "fresh.seg"))
		gotBytes, _ := os.ReadFile(filepath.Join(dir, "reused.seg"))
		got.File = want.File
		if got != want || !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("shard %d: a reused buffer wrote %+v (%d bytes), a fresh one %+v (%d bytes)", k, got, len(gotBytes), want, len(wantBytes))
		}
	}
}
