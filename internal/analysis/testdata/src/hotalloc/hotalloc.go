// Package hotalloc seeds hotalloc violations inside //gvet:hotpath
// functions: map and slice allocation, new, &T{...}, fmt use, closures and
// interface boxing.
package hotalloc

import "fmt"

func consume(v any) {}

// drainFast mimics a drain-loop kernel.
//
//gvet:hotpath
func drainFast(xs []int) int {
	seen := make(map[int]bool) // want "allocates in hot path; preallocate the map outside drainFast"
	total := 0
	for _, x := range xs {
		if seen[x] {
			continue
		}
		seen[x] = true
		total += x
	}
	fmt.Println(total)               // want "fmt.Println in hot path"
	f := func() int { return total } // want "closure allocates in hot path"
	return f()
}

// boxValue mimics a kernel calling through an any-typed helper.
//
//gvet:hotpath
func boxValue(v int) {
	consume(v) // want "boxes a concrete value into interface parameter of consume"
}

type occurrence struct{ images []int }

type state struct {
	arena []occurrence
	occ   occurrence
}

// emitFresh mimics an emit that hands every consumer its own occurrence: an
// arena refill, a fresh struct or a counter cell per call.
//
//gvet:hotpath
func (s *state) emitFresh(k int) *occurrence {
	if len(s.arena) == 0 {
		s.arena = make([]occurrence, 1024) // want "allocates in hot path; reuse a buffer owned by preallocated state in emitFresh"
	}
	n := new(int) // want "new allocates in hot path"
	*n = k
	return &occurrence{images: s.arena[0].images} // want "allocates in hot path; overwrite a value owned by preallocated state in emitFresh"
}

// emitBorrowed lends the one occurrence the state owns: nothing to flag.
//
//gvet:hotpath
func (s *state) emitBorrowed(k int) *occurrence {
	s.occ.images[0] = k
	return &s.occ
}

// cold is identical but unannotated: not checked.
func cold(xs []int) int {
	seen := make(map[int]bool)
	total := 0
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			total += x
		}
	}
	fmt.Println(total)
	return total
}
