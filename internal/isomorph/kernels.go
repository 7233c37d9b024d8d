package isomorph

import (
	"math/bits"

	"repro/internal/graph"
)

// Intersection kernels for the enumeration inner loop. The planner decides
// WHERE selective constraints bind; these kernels make binding them cheap:
//
//   - Single-anchor depths iterate a memoized candidate run: the anchor's
//     neighbor row filtered once by the depth's static label and min-degree
//     constraints and cached per (anchor depth, label, minDeg) key, so sibling
//     depths with identical constraints (a star's leaves) reuse one filter
//     pass and the backtracking loop touches only vertices that can match.
//   - Multi-anchor depths intersect the two smallest-degree anchors' sorted
//     neighbor runs with galloping binary search (gallopIntersect) instead of
//     probing HasEdgeAt per candidate, then verify any remaining anchors
//     with HasEdgeAt on the few candidates the intersection leaves.
//
// Both kernels preserve the ascending candidate order of the plain CSR scan,
// so for a fixed search order the sequential emission order is unchanged.
//
// A depth confined to a mask (Options.Masks) filters its memoized run through
// the mask as well (filterRunMasked) and compacts its intersection to the
// mask (keepMasked). Which kernel runs is decided once per run build or
// visit, so an unmasked search runs the loops it always ran.

// gallopIntersect appends to dst the values present in both sorted ascending
// duplicate-free slices and returns the extended slice. It iterates the
// shorter input and locates each value in the longer one by galloping
// (exponential widening from the previous match position, then binary search
// inside the window), so the cost is O(min·log(max/min)) — proportional to
// the short run even when the long one is a hub's neighbor row.
//
//gvet:hotpath
func gallopIntersect(a, b, dst []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	j := 0
	for _, x := range a {
		step := 1
		for j+step < len(b) && b[j+step] < x {
			j += step
			step <<= 1
		}
		hi := j + step
		if hi > len(b) {
			hi = len(b)
		}
		for j < hi {
			mid := int(uint(j+hi) >> 1)
			if b[mid] < x {
				j = mid + 1
			} else {
				hi = mid
			}
		}
		if j == len(b) {
			break
		}
		if b[j] == x {
			dst = append(dst, x)
			j++
		}
	}
	return dst
}

// filterRun appends to dst the entries of a sorted neighbor run that satisfy
// the depth's static constraints (label equality and the min-degree lower
// bound) and returns the extended slice. The taken check stays in the
// backtracking loop — it is the only per-candidate predicate that changes as
// the search descends, so everything else is safe to pre-filter once per
// anchor assignment.
//
//gvet:hotpath
func filterRun(snap *graph.Snapshot, run []int32, label graph.Label, minDeg int, dst []int32) []int32 {
	for _, c := range run {
		if snap.LabelAt(c) == label && snap.DegreeAt(c) >= minDeg {
			dst = append(dst, c)
		}
	}
	return dst
}

// filterRunMasked is filterRun for a depth confined to a mask
// (Options.Masks): an entry must be in the mask as well. The mask is tested
// first — one word load, where the label and degree each resolve a shard.
//
//gvet:hotpath
func filterRunMasked(snap *graph.Snapshot, run []int32, label graph.Label, minDeg int, mask Mask, dst []int32) []int32 {
	for _, c := range run {
		if mask.Has(c) && snap.LabelAt(c) == label && snap.DegreeAt(c) >= minDeg {
			dst = append(dst, c)
		}
	}
	return dst
}

// keepMasked compacts a worker-owned candidate run in place to its entries in
// mask, keeping their order, and returns the shortened run.
//
//gvet:hotpath
func keepMasked(run []int32, mask Mask) []int32 {
	out := run[:0]
	for _, c := range run {
		if mask.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// Mask is a set of dense indexes of one snapshot, one bit per vertex: index x
// is in the set when bit x%64 of word x/64 is set.
type Mask []uint64

// NewMask returns the empty mask over a snapshot of n vertices.
func NewMask(n int) Mask { return make(Mask, (n+63)/64) }

// Add puts dense index x into m.
func (m Mask) Add(x int32) { m[x>>6] |= 1 << uint(x&63) }

// Has reports whether dense index x is in m.
//
//gvet:hotpath
func (m Mask) Has(x int32) bool { return m[x>>6]&(1<<uint(x&63)) != 0 }

// Count returns the number of indexes in m.
func (m Mask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Intersect removes from m every index that is not in o, a mask over the
// same snapshot.
func (m Mask) Intersect(o Mask) {
	for i := range m {
		m[i] &= o[i]
	}
}

// runSlot is one memoized single-anchor candidate run: the filtered neighbor
// run of the anchor's current assignment. anchor == -1 marks an empty slot.
// Slots live on the per-worker searchState; a slot is recomputed only when
// its anchor depth is reassigned, which can only happen after every loop
// iterating the slot has unwound, so shared reads are safe.
type runSlot struct {
	anchor int32
	run    []int32
}
