package isomorph

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// orderPattern builds a pattern from node labels and edges over node
// positions.
func orderPattern(labels []graph.Label, edges ...[2]int) *pattern.Pattern {
	b := graph.NewBuilder("pattern")
	for i, l := range labels {
		b.Vertex(graph.VertexID(i), l)
	}
	for _, e := range edges {
		b.Edge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	return pattern.MustNew(b.MustBuild())
}

// The eval-stream patterns, A = label 1 and B = label 2, and three more
// shapes for the pinned orders: a path of four, a triangle with a tail and a
// one-label 4-cycle.
var (
	orderEdge     = orderPattern([]graph.Label{1, 2}, [2]int{0, 1})
	orderPath     = orderPattern([]graph.Label{1, 2, 2}, [2]int{0, 1}, [2]int{1, 2})
	orderTriangle = orderPattern([]graph.Label{1, 2, 2}, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2})
	orderStar     = orderPattern([]graph.Label{1, 2, 2, 2}, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})
	orderPath4    = orderPattern([]graph.Label{1, 2, 1, 2}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	orderTailed   = orderPattern([]graph.Label{1, 2, 2, 1}, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}, [2]int{2, 3})
	orderCycle4   = orderPattern([]graph.Label{1, 1, 1, 1}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})
)

// erStream is the work ledger's reduced eval-stream graph: ER(4096) at mean
// degree 6 with two labels, on one shard.
func erStream() *graph.Snapshot {
	const n = 1 << 12
	return gen.ErdosRenyi(n, 6/float64(n-1), gen.UniformLabels{K: 2}, 1).FreezeSharded(graph.FreezeOptions{Shards: 1})
}

// TestPlannerPricesRuns pins the orders the work model chooses on the
// eval-stream graph, under each pattern's symmetry as a streamed evaluation
// searches it. The A–B–B path roots at its centre, so both leaves' runs are
// built once per root rather than the far leaf's once per centre; rooted at
// the A leaf it models more work. The symmetric A–B–B triangle roots at its
// B–B orbit pair, whose second node starts above the first, so half the pairs
// reach the intersection that finds A. The edge and the star keep the orders
// they had before runs were priced, and a pinned search — which grows from
// its arc with no symmetry cut — keeps its order at every arc of seven
// patterns on this graph and on the mine-cold graph (BA(400), three labels).
func TestPlannerPricesRuns(t *testing.T) {
	er := erStream()
	for _, c := range []struct {
		name  string
		p     *pattern.Pattern
		order []int
		below [][]int
	}{
		{"edge", orderEdge, []int{0, 1}, [][]int{nil, nil}},
		{"path", orderPath, []int{1, 0, 2}, [][]int{nil, nil, nil}},
		{"triangle", orderTriangle, []int{1, 2, 0}, [][]int{nil, {0}, nil}},
		{"star", orderStar, []int{0, 1, 2, 3}, [][]int{nil, nil, {1}, {1, 2}}},
	} {
		pl := newSearchPlan(er, c.p, Options{Symmetry: NewSymmetry(c.p)})
		if !slices.Equal(pl.slot, c.order) {
			t.Errorf("%s: order %v, want %v", c.name, pl.slot, c.order)
		}
		for d := range c.below {
			if !slices.Equal(pl.below[d], c.below[d]) {
				t.Errorf("%s: depth %d starts above depths %v, want %v", c.name, d, pl.below[d], c.below[d])
			}
		}
	}
	m := newPatternModel(orderPath)
	p := newPricer(m, newPlannerStats(er, m, nil), nil, NewSymmetry(orderPath))
	work := func(order ...int) float64 {
		p.reset()
		for _, i := range order {
			p.push(i)
		}
		return p.work
	}
	if leaf, centre := work(0, 1, 2), work(1, 0, 2); leaf <= centre {
		t.Errorf("path: rooted at the A leaf models work %.0f, at the centre %.0f; want the leaf dearer", leaf, centre)
	}
	// The star's three leaves share one memoized run of the centre's row, so
	// the model charges one row read per centre: the root scan, the visits
	// and a single run.
	sm := newPatternModel(orderStar)
	star := newPricer(sm, newPlannerStats(er, sm, nil), nil, NewSymmetry(orderStar))
	levels, level := 0.0, 1.0
	for d, i := range []int{0, 1, 2, 3} {
		level *= star.push(i)
		levels += level
		if d == 0 {
			levels += float64(star.st.cnt[i]) + level*star.st.avgDeg
		}
	}
	if math.Abs(star.work-levels) > 1e-9*levels {
		t.Errorf("star: modeled work %.3f, want %.3f: the leaves' shared run charged once", star.work, levels)
	}

	// Every arc's order, as the planner grew it before it priced runs.
	ba := gen.BarabasiAlbert(400, 2, gen.UniformLabels{K: 3}, 1).FreezeSharded(graph.FreezeOptions{Shards: 1})
	pinned := []struct {
		graph  string
		snap   *graph.Snapshot
		p      *pattern.Pattern
		orders string
	}{
		{"er", er, orderEdge, "[0 1] [1 0]"},
		{"er", er, orderPath, "[0 1 2] [1 0 2] [1 2 0] [2 1 0]"},
		{"er", er, orderTriangle, "[0 1 2] [0 2 1] [1 0 2] [1 2 0] [2 0 1] [2 1 0]"},
		{"er", er, orderStar, "[0 1 2 3] [0 2 1 3] [0 3 1 2] [1 0 2 3] [2 0 1 3] [3 0 1 2]"},
		{"er", er, orderPath4, "[0 1 2 3] [1 0 2 3] [1 2 0 3] [2 1 0 3] [2 3 1 0] [3 2 1 0]"},
		{"er", er, orderTailed, "[0 1 2 3] [0 2 1 3] [1 0 2 3] [1 2 0 3] [2 0 1 3] [2 1 0 3] [2 3 0 1] [3 2 0 1]"},
		{"er", er, orderCycle4, "[0 1 2 3] [0 3 1 2] [1 0 2 3] [1 2 0 3] [2 1 0 3] [2 3 0 1] [3 0 1 2] [3 2 0 1]"},
		{"ba", ba, orderEdge, "[0 1] [1 0]"},
		{"ba", ba, orderPath, "[0 1 2] [1 0 2] [1 2 0] [2 1 0]"},
		{"ba", ba, orderTriangle, "[0 1 2] [0 2 1] [1 0 2] [1 2 0] [2 0 1] [2 1 0]"},
		{"ba", ba, orderStar, "[0 1 2 3] [0 2 1 3] [0 3 1 2] [1 0 2 3] [2 0 1 3] [3 0 1 2]"},
		{"ba", ba, orderPath4, "[0 1 2 3] [1 0 2 3] [1 2 3 0] [2 1 3 0] [2 3 1 0] [3 2 1 0]"},
		{"ba", ba, orderTailed, "[0 1 2 3] [0 2 1 3] [1 0 2 3] [1 2 0 3] [2 0 1 3] [2 1 0 3] [2 3 1 0] [3 2 1 0]"},
		{"ba", ba, orderCycle4, "[0 1 2 3] [0 3 1 2] [1 0 2 3] [1 2 0 3] [2 1 0 3] [2 3 0 1] [3 0 1 2] [3 2 0 1]"},
	}
	for _, c := range pinned {
		sym := NewSymmetry(c.p)
		var orders []string
		for a, nbs := range newPatternModel(c.p).adj {
			for _, b := range nbs {
				orders = append(orders, fmt.Sprint(NewPinnedSearch(c.snap, c.p, sym, a, b).pl.slot))
			}
		}
		if got := strings.Join(orders, " "); got != c.orders {
			t.Errorf("%s %v: pinned orders %s, want %s", c.graph, c.p, got, c.orders)
		}
	}
}

// TestPricerCutMatchesBelow holds the planner's incremental stabiliser chain
// to Symmetry.below: pushed in any order, every position of a symmetric
// pattern is priced with as many earlier depths in its cut as the search
// under that order starts its depth above.
func TestPricerCutMatchesBelow(t *testing.T) {
	er := erStream()
	k4 := orderPattern([]graph.Label{1, 1, 1, 1}, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}, [2]int{1, 2}, [2]int{1, 3}, [2]int{2, 3})
	for _, pat := range []*pattern.Pattern{orderTriangle, orderStar, orderTailed, orderCycle4, k4} {
		m, sym := newPatternModel(pat), NewSymmetry(pat)
		p := newPricer(m, newPlannerStats(er, m, nil), nil, sym)
		var permute func(order []int, rest []int)
		permute = func(order []int, rest []int) {
			if len(rest) == 0 {
				p.reset()
				for _, i := range order {
					p.push(i)
				}
				for d, b := range sym.below(order, sym.perms) {
					if got := p.cut[order[d]]; got != len(b) {
						t.Fatalf("%v in order %v: depth %d priced with a cut of %d, the search starts it above %v", pat, order, d, got, b)
					}
				}
				return
			}
			for j := range rest {
				next := append(slices.Clone(rest[:j]), rest[j+1:]...)
				permute(append(order, rest[j]), next)
			}
		}
		permute(nil, []int{0, 1, 2, 3}[:len(m.nodes)])
	}
}

// TestChooseOrderAllocations holds planning a 4-node pattern under its
// symmetry to at most 8 allocations: the pricer carves its scratch from two
// allocations made once per call, so trying every root costs no more
// allocations than trying one, and planning adds nothing to a mine's
// allocation profile. The model it plans on is six allocations, whatever the
// pattern's size: its adjacency is read off the pattern's rows at once.
func TestChooseOrderAllocations(t *testing.T) {
	er := erStream()
	for _, p := range []*pattern.Pattern{orderStar, orderTailed, orderCycle4} {
		m, sym := newPatternModel(p), NewSymmetry(p)
		if allocs := testing.AllocsPerRun(100, func() { chooseOrder(er, m, nil, sym) }); allocs > 8 {
			t.Errorf("%v: chooseOrder makes %.0f allocations, want at most 8", p, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { newPatternModel(p) }); allocs > 6 {
			t.Errorf("%v: newPatternModel makes %.0f allocations, want at most 6", p, allocs)
		}
	}
}
