package isomorph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestSortTuples holds sortTuples to a sort of the tuples as slices, on
// both of its paths — packed keys (k indexes below n fit in 64 bits) and the
// permutation — over shuffled, sorted and duplicated input.
func TestSortTuples(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct{ k, n, m int }{
		{1, 1, 1}, {1, 7, 30}, {2, 5, 40}, {3, 240, 2000}, {4, 1 << 16, 500},
		{5, 1 << 12, 300}, {5, 1 << 13, 300}, {7, 1 << 20, 200},
	} {
		for _, shape := range []string{"shuffled", "sorted", "duplicated"} {
			tuples := make([][]int32, tc.m)
			for j := range tuples {
				tuples[j] = make([]int32, tc.k)
				for c := range tuples[j] {
					tuples[j][c] = int32(rng.IntN(tc.n))
				}
			}
			switch shape {
			case "sorted":
				slices.SortFunc(tuples, slices.Compare)
			case "duplicated":
				for j := 1; j < len(tuples); j += 2 {
					tuples[j] = tuples[j-1]
				}
			}
			flat := slices.Concat(tuples...)
			sortTuples(flat, tc.k, tc.n)
			slices.SortFunc(tuples, slices.Compare)
			if want := slices.Concat(tuples...); !slices.Equal(flat, want) {
				t.Fatalf("k=%d n=%d %s: sorted to %v, want %v", tc.k, tc.n, shape, flat, want)
			}
		}
	}
}
