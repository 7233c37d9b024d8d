package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/graph"
)

// Options configures Open.
type Options struct {
	// ResidencyBudget caps the bytes of mapped shard data the residency
	// manager keeps accounted resident; least-recently-drained shards are
	// evicted (madvise) beyond it. Zero defers to ResidencyFraction, then to
	// the BudgetEnv environment variable, then to unlimited (no eviction).
	ResidencyBudget int64
	// ResidencyFraction expresses the budget as a fraction (0, 1] of the
	// store's total mapped bytes; ignored when ResidencyBudget is set.
	ResidencyFraction float64
}

// Store is an open shard store directory: the parsed manifest, the mapped
// segment files, the residency manager paging them, and the mmap-backed
// snapshot serving the read API over the mapped bytes. Obtain one with Open
// and Close it when the snapshot is no longer in use.
type Store struct {
	dir  string
	man  Manifest
	maps []mapping
	res  *residency
	snap *graph.Snapshot

	mu     sync.Mutex
	closed bool
}

// Open loads the shard store at dir and returns it with an mmap-backed
// snapshot: every shard's CSR arrays alias the mapped segment bytes
// directly (no deserialization copy), so opening costs one checksum pass
// over the files plus O(labels) map
// construction per shard, independent of the graph's size. The snapshot
// satisfies the entire read API — enumeration and mining over it are
// byte-identical to the in-memory snapshot the store was written from.
//
// The returned snapshot is valid until Close; the residency manager evicts
// pages, never mappings, so concurrent readers are safe throughout. On
// platforms without mmap support the segments are read onto the heap
// instead and the residency budget keeps its accounting but releases no
// memory.
func Open(dir string, opts Options) (*Store, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, man: man}
	total := int64(0)
	ext := make([]graph.ExternalShard, len(man.Segments))
	for k, seg := range man.Segments {
		m, data, err := loadSegment(dir, seg, k, man.ShardShift)
		if err != nil {
			st.closeMaps()
			return nil, err
		}
		st.maps = append(st.maps, m)
		total += int64(len(m.data))
		if got := crc32.Checksum(m.data, castagnoli); got != seg.CRC32C {
			st.closeMaps()
			return nil, fmt.Errorf("store: segment %s checksum mismatch: file %#08x, manifest %#08x", seg.File, got, seg.CRC32C)
		}
		ext[k], err = decodeShard(data, seg, k<<man.ShardShift, man.Vertices)
		if err != nil {
			st.closeMaps()
			return nil, fmt.Errorf("store: segment %s: %w", seg.File, err)
		}
	}

	budget, err := resolveBudget(opts, total)
	if err != nil {
		st.closeMaps()
		return nil, err
	}
	st.res = newResidency(budget, st.maps)
	if budget > 0 {
		// The verification pass faulted every page in; drop them so a
		// budgeted store starts cold and pages in under the scheduler's
		// ownership hints.
		st.res.evictAll()
	}

	snap, err := graph.NewExternalSnapshot(man.Name, man.ShardShift, man.Edges, ext, st.res)
	if err != nil {
		st.closeMaps()
		return nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	if snap.NumVertices() != man.Vertices {
		st.closeMaps()
		return nil, fmt.Errorf("store: %s: segments hold %d vertices, manifest says %d", dir, snap.NumVertices(), man.Vertices)
	}
	st.snap = snap
	return st, nil
}

// OpenWithBudget is Open with the residency budget given in ParseBudget
// syntax — plain bytes, binary sizes ("64MiB") or a percentage of the store
// ("25%"); empty means unlimited (still subject to the BudgetEnv override).
// It is the one-call form behind the CLI -store/-residency flag pairs.
func OpenWithBudget(dir, budget string) (*Store, error) {
	bytes, frac, err := ParseBudget(budget)
	if err != nil {
		return nil, err
	}
	return Open(dir, Options{ResidencyBudget: bytes, ResidencyFraction: frac})
}

// readManifest loads and validates the manifest of a store directory.
func readManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Manifest{}, fmt.Errorf("store: %s is not a shard store (no %s)", dir, ManifestFile)
		}
		return Manifest{}, fmt.Errorf("store: reading manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, fmt.Errorf("store: parsing %s: %w", ManifestFile, err)
	}
	if man.Format != FormatName {
		return Manifest{}, fmt.Errorf("store: %s has format %q, want %q", dir, man.Format, FormatName)
	}
	if man.Version != FormatVersion {
		return Manifest{}, fmt.Errorf("store: %s uses unknown format version %d (this build reads version %d)", dir, man.Version, FormatVersion)
	}
	if man.Shards != len(man.Segments) {
		return Manifest{}, fmt.Errorf("store: manifest lists %d segments for %d shards", len(man.Segments), man.Shards)
	}
	if err := checkManifest(man); err != nil {
		return Manifest{}, fmt.Errorf("store: %s: %w", ManifestFile, err)
	}
	return man, nil
}

// checkManifest rejects what a manifest could say that no writer writes and
// that Open would otherwise follow: a negative count, a count beyond what a
// dense int32 index reaches, a shard shift that overflows a shift of the
// shard index, and a segment file that is not a plain name inside the store
// directory (filepath.Join would follow "../" out of it).
func checkManifest(man Manifest) error {
	if man.Vertices < 0 || man.Vertices > math.MaxInt32 || man.Edges < 0 {
		return fmt.Errorf("bad totals: %d vertices, %d edges", man.Vertices, man.Edges)
	}
	if man.ShardShift >= 63 {
		return fmt.Errorf("shard shift %d is out of range", man.ShardShift)
	}
	for k, seg := range man.Segments {
		if seg.Vertices < 0 || seg.Vertices > math.MaxInt32 || seg.Neighbors < 0 || seg.Neighbors > math.MaxInt32 ||
			seg.Labels < 0 || seg.Labels > math.MaxInt32 || seg.Bytes < 0 {
			return fmt.Errorf("segment %d has bad counts: %d vertices, %d neighbours, %d labels, %d bytes",
				k, seg.Vertices, seg.Neighbors, seg.Labels, seg.Bytes)
		}
		if !filepath.IsLocal(seg.File) || filepath.Base(seg.File) != seg.File || seg.File == "." {
			return fmt.Errorf("segment %d names file %q, not a plain file name in the store", k, seg.File)
		}
	}
	return nil
}

// loadSegment maps shard k's segment file and cross-checks its size and
// header against the manifest descriptor. It returns the mapping and the
// section bytes.
func loadSegment(dir string, seg Segment, k int, shift uint) (mapping, []byte, error) {
	lay := layoutFor(seg.Vertices, seg.Neighbors, seg.Labels)
	if seg.Bytes != lay.total {
		return mapping{}, nil, fmt.Errorf("store: segment %s: manifest size %d does not match layout size %d", seg.File, seg.Bytes, lay.total)
	}
	m, err := mapFile(filepath.Join(dir, seg.File))
	if err != nil {
		return mapping{}, nil, fmt.Errorf("store: segment %s: %w", seg.File, err)
	}
	if int64(len(m.data)) != lay.total {
		sz := int64(len(m.data))
		m.close()
		return mapping{}, nil, fmt.Errorf("store: segment %s is truncated or padded: %d bytes on disk, layout needs %d", seg.File, sz, lay.total)
	}
	h, err := readHeader(m.data)
	if err != nil {
		m.close()
		return mapping{}, nil, fmt.Errorf("store: segment %s: %w", seg.File, err)
	}
	if int(h.shard) != k || int(h.vertices) != seg.Vertices || int(h.neighbors) != seg.Neighbors ||
		int(h.labels) != seg.Labels || h.lo != uint64(k)<<shift {
		m.close()
		return mapping{}, nil, fmt.Errorf("store: segment %s header disagrees with manifest (shard %d vs %d, n %d vs %d)", seg.File, h.shard, k, h.vertices, seg.Vertices)
	}
	return m, m.data, nil
}

// decodeShard builds the shard's typed arrays over the segment bytes: a
// zero-copy reinterpretation on little-endian 64-bit hosts, a heap-copying
// decode elsewhere. The per-label map is always built on the heap (one entry
// per distinct label); its value slices alias the labelIdx section on the
// zero-copy path. The shard's first dense index is lo and the snapshot has
// vertices vertices; checkShard holds every index the snapshot will follow
// to them.
func decodeShard(data []byte, seg Segment, lo, vertices int) (graph.ExternalShard, error) {
	n, m, l := seg.Vertices, seg.Neighbors, seg.Labels
	lay := layoutFor(n, m, l)
	var ext graph.ExternalShard
	var labelIdx []int32
	if canAlias {
		ext.IDs = aliasSlice[graph.VertexID](data, lay.ids, n)
		ext.Labels = aliasSlice[graph.Label](data, lay.labels, n)
		ext.RowPtr = aliasSlice[int32](data, lay.rowPtr, n+1)
		ext.ColIdx = aliasSlice[int32](data, lay.colIdx, m)
		labelIdx = aliasSlice[int32](data, lay.labelIdx, n)
	} else {
		ext.IDs = make([]graph.VertexID, n)
		ext.Labels = make([]graph.Label, n)
		for j := 0; j < n; j++ {
			id := binary.LittleEndian.Uint64(data[lay.ids+int64(j)*8:])
			lb := binary.LittleEndian.Uint64(data[lay.labels+int64(j)*8:])
			if id > math.MaxInt || lb > math.MaxInt {
				return ext, fmt.Errorf("vertex %d overflows this platform's int", j)
			}
			ext.IDs[j] = graph.VertexID(id)
			ext.Labels[j] = graph.Label(lb)
		}
		ext.RowPtr = copyInt32s(data, lay.rowPtr, n+1)
		ext.ColIdx = copyInt32s(data, lay.colIdx, m)
		labelIdx = copyInt32s(data, lay.labelIdx, n)
	}
	if err := checkShard(ext, labelIdx, lo, vertices); err != nil {
		return ext, err
	}

	ext.ByLabel = make(map[graph.Label][]int32, l)
	for li := 0; li < l; li++ {
		key := lay.labelKeys + int64(li)*16
		label := graph.Label(binary.LittleEndian.Uint64(data[key:]))
		off := int(binary.LittleEndian.Uint32(data[key+8:]))
		cnt := int(binary.LittleEndian.Uint32(data[key+12:]))
		if off+cnt > len(labelIdx) {
			return ext, fmt.Errorf("label %d index range [%d,%d) exceeds the %d-entry label index", label, off, off+cnt, len(labelIdx))
		}
		ext.ByLabel[label] = labelIdx[off : off+cnt : off+cnt]
	}
	return ext, nil
}

// checkShard verifies the indexes a snapshot follows without checking them
// again: the CSR row offsets start at 0, never decrease and end at the
// segment's neighbour count; every neighbour is a dense index below vertices;
// and every label-index entry is one of the shard's own, in [lo, lo+n). A
// matching checksum proves the bytes are the writer's, not that the writer was
// right, so a bad segment must fail here rather than index out of range later.
// It reads each array once, in the pass that has just checksummed the same
// bytes.
func checkShard(ext graph.ExternalShard, labelIdx []int32, lo, vertices int) error {
	rows, cols := ext.RowPtr, ext.ColIdx
	if rows[0] != 0 {
		return fmt.Errorf("rowPtr starts at %d, not 0", rows[0])
	}
	for j := 1; j < len(rows); j++ {
		if rows[j] < rows[j-1] {
			return fmt.Errorf("rowPtr decreases at vertex %d, from %d to %d", j-1, rows[j-1], rows[j])
		}
	}
	if end := rows[len(rows)-1]; int(end) != len(cols) {
		return fmt.Errorf("rowPtr ends at %d, the segment holds %d neighbours", end, len(cols))
	}
	for i, c := range cols {
		if c < 0 || int(c) >= vertices {
			return fmt.Errorf("neighbour %d is dense index %d, outside the snapshot's %d vertices", i, c, vertices)
		}
	}
	for i, x := range labelIdx {
		if int(x) < lo || int(x) >= lo+len(labelIdx) {
			return fmt.Errorf("label index entry %d is dense index %d, outside the shard's [%d,%d)", i, x, lo, lo+len(labelIdx))
		}
	}
	return nil
}

// copyInt32s decodes n little-endian int32 values starting at data[off].
func copyInt32s(data []byte, off int64, n int) []int32 {
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(data[off+int64(i)*4:]))
	}
	return out
}

// resolveBudget picks the effective residency budget for a store of total
// mapped bytes: explicit options first, then the BudgetEnv override, then
// unlimited.
func resolveBudget(opts Options, total int64) (int64, error) {
	if opts.ResidencyBudget > 0 {
		return opts.ResidencyBudget, nil
	}
	if opts.ResidencyFraction > 0 {
		if opts.ResidencyFraction > 1 {
			return 0, fmt.Errorf("store: ResidencyFraction %g outside (0, 1]", opts.ResidencyFraction)
		}
		return int64(opts.ResidencyFraction * float64(total)), nil
	}
	return envBudget(total)
}

// Snapshot returns the store's mmap-backed snapshot. It is immutable and
// safe for concurrent readers, like every snapshot, and must not be used
// after Close.
func (st *Store) Snapshot() *graph.Snapshot { return st.snap }

// Manifest returns the store's parsed manifest.
func (st *Store) Manifest() Manifest { return st.man }

// Residency returns the residency manager's current accounting.
func (st *Store) Residency() ResidencyStats { return st.res.stats() }

// Close unmaps every segment. The store's snapshot (and every slice read
// through it) becomes invalid; the caller guarantees no reader still uses
// it. Closing twice is a no-op.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if st.res != nil {
		st.res.release()
	}
	return st.closeMaps()
}

// closeMaps unmaps every mapped segment, keeping the first error.
func (st *Store) closeMaps() error {
	var first error
	for _, m := range st.maps {
		if err := m.close(); err != nil && first == nil {
			first = err
		}
	}
	st.maps = nil
	return first
}
