package graph

import (
	"fmt"
	"sort"
)

// ShardBacking is the storage hook of snapshots whose shard arrays live
// outside the Go heap (the mmapped segments of internal/store). It receives
// residency hints from the enumeration engine's shard-first scheduler:
// AcquireShard is called before a worker starts draining a shard's root
// candidates and ReleaseShard when it stops, so the backing can page the
// shard's arrays in ahead of the drain and prefer evicting shards no worker
// currently owns. Snapshots built by Freeze/FreezeSharded have no backing and
// skip the hooks entirely.
//
// Acquire/Release pairs may nest and interleave across goroutines (several
// workers can drain one shard while stealing); implementations must be safe
// for concurrent use. The hooks are advisory: shard reads are valid whether
// or not they were announced, so a backing may ignore them without breaking
// correctness.
type ShardBacking interface {
	// AcquireShard notes that a reader is about to walk shard k's arrays.
	AcquireShard(k int)
	// ReleaseShard notes that a reader acquired via AcquireShard is done
	// with shard k for now.
	ReleaseShard(k int)
}

// ExternalShard describes one shard's CSR arrays for NewExternalSnapshot.
// The slices are a shard's CSR arrays with its columns as one array, as a
// store segment holds them; the snapshot cuts that array into column blocks
// without copying it (see the shard type). They may live on the Go heap or
// alias externally managed memory such as an mmapped file — the two kinds
// coexist freely within one snapshot. The caller must not mutate any slice
// after handing it over.
type ExternalShard struct {
	// IDs maps shard-local offset to VertexID, sorted ascending; IDs of
	// consecutive shards must be globally sorted too.
	IDs []VertexID
	// Labels holds the label of each vertex, aligned with IDs.
	Labels []Label
	// RowPtr and ColIdx are the shard-local CSR adjacency: the neighbors of
	// the vertex at local offset j are ColIdx[RowPtr[j]:RowPtr[j+1]], each a
	// global dense index sorted ascending. len(RowPtr) == len(IDs)+1.
	RowPtr []int32
	ColIdx []int32
	// ByLabel partitions the shard's global dense indexes by label, each
	// slice sorted ascending. Nil means: derive it from Labels (allocating
	// fresh heap slices).
	ByLabel map[Label][]int32
}

// NewExternalSnapshot assembles an immutable Snapshot over externally
// provided shard arrays — the read-side constructor behind the out-of-core
// shard store (internal/store), where the arrays alias mmapped segment files
// and are served without a deserialization copy. The result satisfies the
// whole snapshot read API (Neighbors/Degree/label lookups, enumeration) and
// is indistinguishable from a FreezeSharded snapshot with the same contents.
//
// shardShift is the log2 of the shard granularity: shard k must cover global
// dense indexes [k<<shardShift, k<<shardShift+len(shards[k].IDs)), every
// shard except the last must hold exactly 1<<shardShift vertices, and no
// shard may be empty. numEdges is the undirected edge total (half the sum of
// all ColIdx lengths). backing, when non-nil, receives the residency hints
// described on ShardBacking.
//
// Only the shard geometry and array lengths are validated here; content
// invariants (sorted IDs, sorted neighbor rows, ByLabel consistency, and a
// RowPtr that never decreases, which the column blocks are cut by) are
// trusted, because callers like the store verify segment checksums and
// row offsets instead of re-deriving them.
func NewExternalSnapshot(name string, shardShift uint, numEdges int, shards []ExternalShard, backing ShardBacking) (*Snapshot, error) {
	shardSize := 1 << shardShift
	s := &Snapshot{
		name:       name,
		numEdges:   numEdges,
		shardShift: shardShift,
		shards:     make([]shard, len(shards)),
		backing:    backing,
		external:   true,
	}
	n := 0
	for k := range shards {
		ext := &shards[k]
		cnt := len(ext.IDs)
		if cnt == 0 {
			return nil, fmt.Errorf("graph: external shard %d is empty", k)
		}
		if cnt != shardSize && k != len(shards)-1 {
			return nil, fmt.Errorf("graph: external shard %d holds %d vertices, want %d (only the last shard may be partial)", k, cnt, shardSize)
		}
		if cnt > shardSize {
			return nil, fmt.Errorf("graph: external shard %d holds %d vertices, more than the shard size %d", k, cnt, shardSize)
		}
		if len(ext.Labels) != cnt {
			return nil, fmt.Errorf("graph: external shard %d has %d labels for %d vertices", k, len(ext.Labels), cnt)
		}
		if len(ext.RowPtr) != cnt+1 {
			return nil, fmt.Errorf("graph: external shard %d has rowPtr length %d, want %d", k, len(ext.RowPtr), cnt+1)
		}
		if ext.RowPtr[0] != 0 || int(ext.RowPtr[cnt]) != len(ext.ColIdx) {
			return nil, fmt.Errorf("graph: external shard %d rowPtr spans [%d,%d], want [0,%d]", k, ext.RowPtr[0], ext.RowPtr[cnt], len(ext.ColIdx))
		}
		byLabel := ext.ByLabel
		if byLabel == nil {
			byLabel = make(map[Label][]int32)
			for j, l := range ext.Labels {
				byLabel[l] = append(byLabel[l], int32(k*shardSize+j))
			}
		}
		s.shards[k] = shard{
			lo:      int32(k * shardSize),
			ids:     ext.IDs,
			labels:  ext.Labels,
			rowPtr:  ext.RowPtr,
			cols:    blockTable(ext.RowPtr, ext.ColIdx),
			byLabel: byLabel,
		}
		n += cnt
	}
	s.n = n
	return s, nil
}

// AcquireShard forwards the "about to drain shard k" residency hint to the
// snapshot's backing, if any. Heap-backed snapshots (Freeze/FreezeSharded)
// have no backing, so the call is a nil check and nothing else.
func (s *Snapshot) AcquireShard(k int) {
	if s.backing != nil {
		s.backing.AcquireShard(k)
	}
}

// ReleaseShard forwards the matching "done draining shard k" hint to the
// snapshot's backing, if any.
func (s *Snapshot) ReleaseShard(k int) {
	if s.backing != nil {
		s.backing.ReleaseShard(k)
	}
}

// Labels returns the distinct vertex labels of the snapshot, sorted, derived
// from the per-shard label partitions.
func (s *Snapshot) Labels() []Label {
	seen := make(map[Label]bool)
	for k := range s.shards {
		for l := range s.shards[k].byLabel {
			seen[l] = true
		}
	}
	out := make([]Label, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
