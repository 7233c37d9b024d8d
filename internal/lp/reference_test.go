package lp

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// referenceSolve is Solve as it was before pivots went sparse: one column
// per edge, every pivot subtracting the whole pivot row from every row. It is
// the oracle Solve is held to bit for bit and pivot for pivot.
func referenceSolve(h *hypergraph.Hypergraph) (res RelaxationResult, pivots int) {
	n := h.NumEdges()
	if n == 0 {
		return RelaxationResult{Status: Optimal}, 0
	}
	vertices := h.Vertices()
	totalCols := n + len(vertices)
	tab := make([][]float64, len(vertices))
	basis := make([]int, len(vertices))
	for i, v := range vertices {
		row := make([]float64, totalCols+1)
		for _, e := range h.IncidentEdges(v) {
			row[e] = 1
		}
		row[n+i] = 1
		row[totalCols] = 1
		tab[i] = row
		basis[i] = n + i
	}
	objective := make([]float64, totalCols)
	for j := 0; j < n; j++ {
		objective[j] = -1
	}
	status, objRow, pivots := referenceSimplex(tab, basis, objective, totalCols)
	res = RelaxationResult{Status: status}
	if status != Optimal {
		return res, pivots
	}
	res.Packing = make([]float64, n)
	for i, b := range basis {
		if b < n {
			res.Packing[b] = tab[i][totalCols]
		}
	}
	for _, y := range res.Packing {
		res.Value += y
	}
	res.Cover = make([]float64, len(vertices))
	for i := range res.Cover {
		res.Cover[i] = -objRow[n+i]
	}
	return res, pivots
}

func referenceSimplex(tab [][]float64, basis []int, objective []float64, totalCols int) (Status, []float64, int) {
	m := len(tab)
	objRow := make([]float64, totalCols+1)
	for j := 0; j < totalCols; j++ {
		objRow[j] = -objective[j]
	}
	for i := 0; i < m; i++ {
		cb := objective[basis[i]]
		if cb == 0 {
			continue
		}
		for j := 0; j <= totalCols; j++ {
			objRow[j] += cb * tab[i][j]
		}
	}

	degenerate, pivots := 0, 0
	const (
		degenerateLimit = 64
		priceEps        = 1e-7
		spuriousEps     = 1e-5
	)
	disabled := make([]bool, totalCols)

	for iter := 0; iter < maxIterations; iter++ {
		entering := -1
		if degenerate < degenerateLimit {
			best := priceEps
			for j := 0; j < totalCols; j++ {
				if !disabled[j] && objRow[j] > best {
					best = objRow[j]
					entering = j
				}
			}
		} else {
			for j := 0; j < totalCols; j++ {
				if !disabled[j] && objRow[j] > priceEps {
					entering = j
					break
				}
			}
		}
		if entering == -1 {
			return Optimal, objRow, pivots
		}
		leaving := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][entering] > eps {
				ratio := tab[i][totalCols] / tab[i][entering]
				if ratio < bestRatio-eps || (math.Abs(ratio-bestRatio) <= eps && (leaving == -1 || basis[i] < basis[leaving])) {
					bestRatio = ratio
					leaving = i
				}
			}
		}
		if leaving == -1 {
			if objRow[entering] <= spuriousEps {
				disabled[entering] = true
				continue
			}
			return Unbounded, objRow, pivots
		}
		if bestRatio <= eps {
			degenerate++
		} else {
			degenerate = 0
		}
		referencePivot(tab, basis, leaving, entering, totalCols)
		pivots++
		factor := objRow[entering]
		if math.Abs(factor) > eps {
			for j := 0; j <= totalCols; j++ {
				objRow[j] -= factor * tab[leaving][j]
			}
		}
	}
	return IterationLimit, objRow, pivots
}

func referencePivot(tab [][]float64, basis []int, row, col, totalCols int) {
	pv := tab[row][col]
	for j := 0; j <= totalCols; j++ {
		tab[row][j] /= pv
	}
	for i := range tab {
		if i == row {
			continue
		}
		factor := tab[i][col]
		if math.Abs(factor) <= eps {
			continue
		}
		for j := 0; j <= totalCols; j++ {
			tab[i][j] -= factor * tab[row][j]
		}
	}
	basis[row] = col
}

// duplicatedHypergraph draws a random hypergraph with edges of 1 to k
// vertices in which each vertex set appears 1 to maxCopies times, the copies
// scattered through the edge order.
func duplicatedHypergraph(rng *rand.Rand, vertices, sets, k, maxCopies int) *hypergraph.Hypergraph {
	var edges [][]graph.VertexID
	for s := 0; s < sets; s++ {
		perm := rng.Perm(vertices)
		vs := make([]graph.VertexID, 1+rng.Intn(k))
		for i := range vs {
			vs[i] = graph.VertexID(perm[i])
		}
		for c := 1 + rng.Intn(maxCopies); c > 0; c-- {
			edges = append(edges, vs)
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	h := hypergraph.New()
	for _, vs := range edges {
		h.MustAddEdge(vs)
	}
	return h
}

// sameBits reports whether two float slices are equal bit for bit, signs of
// zero included.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSolveMatchesReference: on 300 random hypergraphs full of repeated
// vertex sets, Solve returns the reference solver's Value, Packing and Cover
// to the bit after the same number of pivots, and gives every edge that
// repeats an earlier vertex set exactly zero.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	counter := obs.Default.Counter("repro_lp_pivots_total")
	for trial := 0; trial < 300; trial++ {
		h := duplicatedHypergraph(rng, 4+rng.Intn(30), 1+rng.Intn(40), 1+rng.Intn(4), 1+trial%6)
		want, wantPivots := referenceSolve(h)
		before := counter.Value()
		got := Solve(h)
		pivots := int(counter.Value() - before)
		if got.Status != want.Status || math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
			!sameBits(got.Packing, want.Packing) || !sameBits(got.Cover, want.Cover) {
			t.Fatalf("trial %d %v %v:\n got %+v\nwant %+v", trial, h, h.Edges(), got, want)
		}
		if pivots != wantPivots {
			t.Fatalf("trial %d %v: %d pivots, the reference took %d", trial, h, pivots, wantPivots)
		}
		for e, first := range h.EdgeClasses() {
			if int(first) != e && math.Float64bits(got.Packing[e]) != 0 {
				t.Fatalf("trial %d: edge %d repeats edge %d and got y = %v", trial, e, first, got.Packing[e])
			}
		}
	}
}

// TestConcurrentSolves solves one shared hypergraph from 8 goroutines at once
// (run under -race): the tableau and the pivot scratch belong to the solve.
func TestConcurrentSolves(t *testing.T) {
	h := duplicatedHypergraph(rand.New(rand.NewSource(8)), 40, 60, 3, 6)
	want, _ := referenceSolve(h)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := Solve(h)
			if math.Float64bits(got.Value) != math.Float64bits(want.Value) || !sameBits(got.Packing, want.Packing) || !sameBits(got.Cover, want.Cover) {
				t.Errorf("concurrent solve returned %v, want %v", got.Value, want.Value)
			}
		}()
	}
	wg.Wait()
}
