package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// FuzzReadWAL feeds ReadWAL logs it did not write. Whatever the bytes, it must
// not panic; the batches it returns, encoded again as Append encodes them,
// must be the input's first bytes exactly — the intact prefix it promises to
// stop after; and replaying their mutations onto a fresh graph must return
// nil or an error from graph.Apply, never panic. The seeds are a log Append
// wrote (three batches under two epochs), its torn tail, a bad CRC, a frame
// whose mutation count disagrees with its length, and an unknown mutation
// kind inside a frame whose CRC holds.
func FuzzReadWAL(f *testing.F) {
	dir := f.TempDir()
	batches := []WALBatch{
		{Epoch: 1, Muts: []graph.Mutation{
			{Kind: graph.MutVertexAdded, U: 1, Label: 1},
			{Kind: graph.MutVertexAdded, U: 2, Label: 2},
			{Kind: graph.MutEdgeAdded, U: 1, V: 2},
		}},
		{Epoch: 1, Muts: []graph.Mutation{
			{Kind: graph.MutEdgeRemoved, U: 1, V: 2},
			{Kind: graph.MutVertexRemoved, U: 2, Label: 2},
		}},
		{Epoch: 2, Muts: []graph.Mutation{
			{Kind: graph.MutVertexAdded, U: 3, Label: 1},
			{Kind: graph.MutEdgeAdded, U: 1, V: 3},
		}},
	}
	for _, b := range batches {
		w, err := OpenWAL(dir, b.Epoch)
		if err != nil {
			f.Fatalf("OpenWAL: %v", err)
		}
		if err := w.Append(b.Muts); err != nil {
			f.Fatalf("Append: %v", err)
		}
		if err := w.Close(); err != nil {
			f.Fatalf("Close: %v", err)
		}
	}
	written, err := os.ReadFile(filepath.Join(dir, WALFile))
	if err != nil {
		f.Fatalf("reading the log: %v", err)
	}
	f.Add(written)
	f.Add(written[:len(written)-5])
	badCRC := bytes.Clone(written)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(badCRC)
	// One mutation framed with a count of two, its CRC recomputed.
	mismatch := appendWALRecord(nil, 1, batches[0].Muts[:1])
	binary.LittleEndian.PutUint32(mismatch[8+8:], 2)
	binary.LittleEndian.PutUint32(mismatch[len(mismatch)-4:], crc32.Checksum(mismatch[8:len(mismatch)-4], castagnoli))
	f.Add(mismatch)
	f.Add(appendWALRecord(bytes.Clone(written), 2, []graph.Mutation{{Kind: 9, U: 4, V: 5, Label: 6}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, WALFile), data, 0o644); err != nil {
			t.Fatalf("writing the log: %v", err)
		}
		batches, err := ReadWAL(dir)
		if err != nil {
			t.Fatalf("ReadWAL: %v", err)
		}
		var encoded []byte
		for _, b := range batches {
			encoded = appendWALRecord(encoded, b.Epoch, b.Muts)
		}
		if !bytes.HasPrefix(data, encoded) {
			t.Fatalf("the %d batches ReadWAL returned encode to %d bytes that are not the log's first bytes", len(batches), len(encoded))
		}
		g := graph.New("replay")
		for _, b := range batches {
			for _, m := range b.Muts {
				_ = g.Apply(m) // an error is an answer; a panic is not
			}
		}
	})
}
