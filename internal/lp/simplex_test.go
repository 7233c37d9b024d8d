package lp

import "testing"

// TestSolveUnbounded: max x subject to -x + s = 1 has no positive entry in
// the entering column. A packing LP cannot be laid out that way — every edge
// column meets a vertex row — so the branch is reached on a hand-laid tableau.
func TestSolveUnbounded(t *testing.T) {
	tab := [][]float64{{-1, 1, 1}}
	status, _ := runSimplex(tab, []int{1}, []float64{-1, 0}, 2)
	if status != Unbounded {
		t.Fatalf("got status %v, want unbounded", status)
	}
}
