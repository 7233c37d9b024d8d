package graph

// High-degree adjacency bitsets. The enumeration inner loop closes cycles by
// probing HasEdgeAt, an O(log degree) binary search in a CSR neighbor row.
// For the handful of hub vertices of a skewed graph those rows are long and
// probed millions of times, so the snapshot lazily materializes a dense
// bitmap row per high-degree vertex: one bit per global dense index, making
// each probe a single word load. Only vertices with degree at or above
// BitsetDegreeThreshold get a row, which bounds the extra memory at
// 2·|E|/threshold rows of |V|/8 bytes — with the default |V|/256 threshold
// that is at most 64·|E| bytes, and in practice far less because hubs are
// rare.

// AdjacencyBits is one vertex's adjacency as a dense bitmap over the owning
// snapshot's global dense indexes: bit i is set iff the vertex has an edge to
// dense index i. A nil value means the vertex has no bitmap row (its degree
// is below the threshold) and callers must fall back to Snapshot.HasEdgeAt.
type AdjacencyBits []uint64

// Contains reports whether global dense index i is a neighbor. It must not be
// called on a nil bitmap (check against nil first and fall back to
// Snapshot.HasEdgeAt).
func (b AdjacencyBits) Contains(i int32) bool {
	return b[i>>6]&(1<<uint(i&63)) != 0
}

// BitsetDegreeThreshold returns the degree at or above which a snapshot with
// n vertices materializes an adjacency bitmap row for a vertex:
// max(64, n/256). The n/256 term bounds total bitmap memory relative to the
// edge count; the floor of 64 keeps tiny graphs from building rows whose
// bitmap is no cheaper than the short CSR row it replaces.
func BitsetDegreeThreshold(n int) int {
	t := n >> 8
	if t < 64 {
		t = 64
	}
	return t
}

// adjacencyBitsets is the lazily built table of high-degree bitmap rows,
// published as one immutable value behind an atomic pointer.
type adjacencyBitsets struct {
	rows map[int32]AdjacencyBits
}

// AdjacencyRow returns the adjacency bitmap of dense index i, or nil when i's
// degree is below BitsetDegreeThreshold. The whole table is built on first
// call (synchronized; concurrent readers are safe) and shared for the
// snapshot's lifetime, so callers should only ask for rows when they intend
// to probe them many times — typically once per enumeration depth, hoisted
// out of the candidate loop.
func (s *Snapshot) AdjacencyRow(i int32) AdjacencyBits {
	bs := s.adjBits.Load()
	if bs == nil {
		bs = s.buildAdjacencyBitsets()
	}
	return bs.rows[i]
}

// buildAdjacencyBitsets materializes the bitmap rows of every vertex at or
// above the degree threshold and publishes the table.
func (s *Snapshot) buildAdjacencyBitsets() *adjacencyBitsets {
	s.bitsMu.Lock()
	defer s.bitsMu.Unlock()
	if bs := s.adjBits.Load(); bs != nil {
		return bs
	}
	threshold := BitsetDegreeThreshold(s.n)
	words := (s.n + 63) / 64
	bs := &adjacencyBitsets{rows: make(map[int32]AdjacencyBits)}
	for k := range s.shards {
		sh := &s.shards[k]
		for j := 0; j < len(sh.ids); j++ {
			if int(sh.rowPtr[j+1]-sh.rowPtr[j]) < threshold {
				continue
			}
			row := make(AdjacencyBits, words)
			for _, c := range sh.colIdx[sh.rowPtr[j]:sh.rowPtr[j+1]] {
				row[c>>6] |= 1 << uint(c&63)
			}
			bs.rows[sh.lo+int32(j)] = row
		}
	}
	s.adjBits.Store(bs)
	return bs
}
