package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/graph"
)

// WriteStats reports what one WriteUpdate commit actually did: the epoch it
// committed and how many segments it had to encode versus carry over from
// the previous manifest untouched. A refreeze that dirtied one shard of a
// large store should report SegmentsWritten == 1.
type WriteStats struct {
	// Epoch is the epoch number the commit installed in the manifest.
	Epoch uint64
	// SegmentsWritten counts the segments encoded and fsynced by this call.
	SegmentsWritten int
	// SegmentsCarried counts the segments reused from the previous manifest
	// by reference (file name and checksum copied, bytes never re-read).
	SegmentsCarried int
}

// Write persists a frozen snapshot into dir as an out-of-core shard store:
// one flat binary segment per CSR shard plus a manifest with per-segment
// checksums. Any snapshot works — freshly frozen, incrementally refrozen, or
// even one that was itself opened from a store. The directory is created if
// needed; an existing store in it is replaced. It is WriteUpdate without a
// previous snapshot: every segment is rewritten.
func Write(snap *graph.Snapshot, dir string) error {
	_, err := WriteUpdate(snap, dir, nil)
	return err
}

// WriteUpdate persists snap into dir, rewriting only the segments that
// changed since prev. When prev is the snapshot the directory's current
// manifest was written from (the engine threads its last committed snapshot
// through), every shard that prev and snap share by array identity — see
// Snapshot.SharesShard — keeps its existing segment file and checksum, and
// only the dirty shards are encoded. With prev nil, or a prev that does not
// match the directory (different shard geometry, stale totals), every
// segment is written; the result is identical either way.
//
// Durability follows a manifest-swap commit protocol. New segments are
// written under epoch-stamped names that no previous manifest references,
// fsynced, and made durable with a directory flush; then the new manifest —
// carrying the incremented epoch — is staged to a temp file, fsynced, and
// renamed over ManifestFile. That rename is the commit point: a crash at any
// earlier step leaves the previous manifest (and every segment it
// references) untouched, so Open recovers the previous epoch; a crash after
// it recovers the new one. Unreferenced segment files — the previous epoch's
// versions of rewritten shards, or debris of a crashed earlier attempt — are
// removed only after the commit, and a crash during that sweep merely leaves
// garbage for the next commit to collect.
//
// The segment encoding is pointer-free and section-aligned so Open can serve
// the shard arrays directly from the mapped file bytes; see segLayout for
// the exact layout.
func WriteUpdate(snap *graph.Snapshot, dir string, prev *graph.Snapshot) (WriteStats, error) {
	var buf []byte
	return writeUpdate(snap, dir, prev, &buf)
}

// writeUpdate is WriteUpdate encoding every segment into *buf, which it
// grows as a segment needs and leaves grown for the caller's next commit.
func writeUpdate(snap *graph.Snapshot, dir string, prev *graph.Snapshot, buf *[]byte) (WriteStats, error) {
	var stats WriteStats
	if snap == nil {
		return stats, fmt.Errorf("store: nil snapshot")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	old, haveOld := previousManifest(dir)
	epoch := old.Epoch + 1
	if !haveOld {
		epoch = 1
	}
	man := Manifest{
		Format:     FormatName,
		Version:    FormatVersion,
		Name:       snap.Name(),
		Vertices:   snap.NumVertices(),
		Edges:      snap.NumEdges(),
		ShardShift: uint(bits.TrailingZeros(uint(snap.ShardSize()))),
		Shards:     snap.NumShards(),
		Epoch:      epoch,
	}
	carry := haveOld && prev != nil &&
		old.ShardShift == man.ShardShift &&
		old.Shards == prev.NumShards() &&
		old.Vertices == prev.NumVertices() &&
		old.Edges == prev.NumEdges()
	for k := 0; k < snap.NumShards(); k++ {
		if carry && k < len(old.Segments) && snap.SharesShard(prev, k) {
			man.Segments = append(man.Segments, old.Segments[k])
			stats.SegmentsCarried++
			continue
		}
		seg, err := writeSegment(dir, snap, k, epochSegmentName(k, epoch), buf)
		if err != nil {
			return stats, err
		}
		man.Segments = append(man.Segments, seg)
		stats.SegmentsWritten++
	}
	if err := syncDir(dir, "segs-dir-sync"); err != nil {
		return stats, err
	}
	if err := writeManifest(dir, man); err != nil {
		return stats, err
	}
	stats.Epoch = epoch
	collectGarbage(dir, man)
	mCommits.Inc()
	mSegmentsWritten.Add(uint64(stats.SegmentsWritten))
	mSegmentsCarried.Add(uint64(stats.SegmentsCarried))
	return stats, nil
}

// previousManifest reads the directory's current manifest for the epoch
// counter and the carry decision. Any failure — no store there yet, or an
// unreadable one — just means nothing can be carried: the rewrite starts
// from epoch 1 and encodes every segment.
func previousManifest(dir string) (Manifest, bool) {
	man, err := readManifest(dir)
	if err != nil {
		return Manifest{}, false
	}
	return man, true
}

// epochSegmentName names shard k's segment file as written by the given
// epoch. The epoch in the name keeps concurrent generations of the same
// shard in distinct files, so an in-place rewrite never overwrites a file
// the live manifest still references.
func epochSegmentName(k int, epoch uint64) string {
	return fmt.Sprintf("shard-%05d-%08d.seg", k, epoch)
}

// collectGarbage removes store files the just-committed manifest does not
// reference: previous-epoch versions of rewritten shards, debris from
// crashed attempts, and any leftover manifest staging file. Only files
// matching the segment name patterns are considered, so the WAL and foreign
// files are never touched. Errors are ignored — garbage is harmless and the
// next commit sweeps again.
func collectGarbage(dir string, man Manifest) {
	if err := fireFault("segment-gc", dir); err != nil {
		return
	}
	referenced := make(map[string]bool, len(man.Segments))
	for _, seg := range man.Segments {
		referenced[seg.File] = true
	}
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.seg"))
	if err != nil {
		return
	}
	for _, path := range matches {
		if !referenced[filepath.Base(path)] {
			os.Remove(path)
		}
	}
	os.Remove(filepath.Join(dir, ManifestFile+".tmp"))
}

// writeManifest stages the manifest to a temp file, fsyncs it, and renames
// it over ManifestFile — the atomic commit point of the rewrite protocol —
// then flushes the directory so the rename itself is durable.
func writeManifest(dir string, man Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	tmp := filepath.Join(dir, ManifestFile+".tmp")
	if err := writeFileSync(tmp, append(data, '\n'), "manifest-write", "manifest-sync"); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	if err := fireFault("manifest-rename", ManifestFile); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestFile)); err != nil {
		return fmt.Errorf("store: installing manifest: %w", err)
	}
	return syncDir(dir, "commit-dir-sync")
}

// writeFileSync writes data to path and fsyncs it, honoring two fault
// points: one fired before the write (aborting there leaves a torn,
// half-written file, exactly as a crash mid-write would) and one fired
// before the fsync (the bytes are written but possibly not durable).
func writeFileSync(path string, data []byte, writePoint, syncPoint string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if ferr := fireFault(writePoint, filepath.Base(path)); ferr != nil {
		f.Write(data[:len(data)/2])
		f.Close()
		return ferr
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if ferr := fireFault(syncPoint, filepath.Base(path)); ferr != nil {
		f.Close()
		return ferr
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir flushes dir's directory entries so freshly created or renamed
// files survive a crash. Filesystems that refuse to fsync a directory are
// tolerated — the flush is best-effort everywhere it is not supported.
func syncDir(dir, point string) error {
	if err := fireFault(point, dir); err != nil {
		return err
	}
	f, err := os.Open(dir)
	if err != nil {
		return nil
	}
	f.Sync()
	return f.Close()
}

// writeSegment encodes shard k of the snapshot into the named segment file,
// fsyncs it, and returns the manifest descriptor. The whole segment is
// assembled in one buffer — shards bound every snapshot allocation, so the
// buffer is bounded by the shard size, not the graph size — and that buffer
// is *buf's array, grown when the segment does not fit it and zeroed first,
// so the layout's padding reads as in a fresh one. Nothing keeps the bytes
// past the return, so the next segment reuses the array.
func writeSegment(dir string, snap *graph.Snapshot, k int, name string, bufp *[]byte) (Segment, error) {
	lo, hi := snap.ShardRange(k)
	n := int(hi - lo)

	// Collect the shard's distinct labels (sorted) and measure the column
	// array; both are needed to fix the layout before encoding.
	m := 0
	labelSet := make(map[graph.Label]bool)
	for i := lo; i < hi; i++ {
		m += snap.DegreeAt(i)
		labelSet[snap.LabelAt(i)] = true
	}
	labels := make([]graph.Label, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })

	lay := layoutFor(n, m, len(labels))
	*bufp = slices.Grow((*bufp)[:0], int(lay.total))
	buf := (*bufp)[:lay.total]
	clear(buf)
	putHeader(buf, segHeader{
		magic:     segMagic,
		version:   FormatVersion,
		shard:     uint32(k),
		vertices:  uint32(n),
		neighbors: uint64(m),
		labels:    uint32(len(labels)),
		lo:        uint64(lo),
	})

	col := 0
	for i := lo; i < hi; i++ {
		j := int(i - lo)
		binary.LittleEndian.PutUint64(buf[lay.ids+int64(j)*8:], uint64(snap.ID(i)))
		binary.LittleEndian.PutUint64(buf[lay.labels+int64(j)*8:], uint64(snap.LabelAt(i)))
		binary.LittleEndian.PutUint32(buf[lay.rowPtr+int64(j)*4:], uint32(col))
		for _, nb := range snap.NeighborsAt(i) {
			binary.LittleEndian.PutUint32(buf[lay.colIdx+int64(col)*4:], uint32(nb))
			col++
		}
	}
	binary.LittleEndian.PutUint32(buf[lay.rowPtr+int64(n)*4:], uint32(col))

	idx := 0
	for li, l := range labels {
		idxs := snap.ShardIndexesWithLabel(k, l)
		key := lay.labelKeys + int64(li)*16
		binary.LittleEndian.PutUint64(buf[key:], uint64(l))
		binary.LittleEndian.PutUint32(buf[key+8:], uint32(idx))
		binary.LittleEndian.PutUint32(buf[key+12:], uint32(len(idxs)))
		for _, gi := range idxs {
			binary.LittleEndian.PutUint32(buf[lay.labelIdx+int64(idx)*4:], uint32(gi))
			idx++
		}
	}
	if idx != n {
		return Segment{}, fmt.Errorf("store: shard %d label partition covers %d of %d vertices", k, idx, n)
	}

	if err := writeFileSync(filepath.Join(dir, name), buf, "segment-write", "segment-sync"); err != nil {
		return Segment{}, fmt.Errorf("store: writing segment %s: %w", name, err)
	}
	return Segment{
		File:      name,
		Vertices:  n,
		Neighbors: m,
		Labels:    len(labels),
		Bytes:     lay.total,
		CRC32C:    crc32.Checksum(buf, castagnoli),
	}, nil
}
