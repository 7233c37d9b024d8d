package measures

import (
	"fmt"

	"repro/internal/core"
)

// MNI is the minimum-image-based support of Bringmann and Nijssen
// (Definition 2.2.8): for every pattern node v, count the distinct data
// vertices that occurrences map v to, and take the minimum over nodes.
// MNI is anti-monotonic and linear-time in the number of occurrences, but it
// ignores the pattern's topology and partial overlaps, so it can arbitrarily
// overestimate the frequency (Figure 2).
type MNI struct{}

// Name implements Measure.
func (MNI) Name() string { return NameMNI }

// Compute implements Measure. The per-node image domains are accumulated
// while the context is built, in both modes, so the measure is read off the
// domain-size table without any occurrence list.
func (MNI) Compute(ctx *core.Context) (Result, error) {
	if ctx.NumOccurrences() == 0 {
		return Result{Measure: NameMNI, Value: 0, Exact: true}, nil
	}
	nodes := ctx.Pattern().Nodes()
	sizes := ctx.MNIDomainSizes()
	minCount, minNode := sizes[0], nodes[0]
	for i, n := range nodes {
		if sizes[i] < minCount {
			minCount, minNode = sizes[i], n
		}
	}
	return Result{
		Measure: NameMNI,
		Value:   float64(minCount),
		Exact:   true,
		Witness: fmt.Sprintf("minimizing node v%d with %d distinct images", minNode, minCount),
	}, nil
}

// MNIK is the parameterized minimum k-image based support
// (Definition 2.2.9): the minimum, over connected node subsets V' of size K,
// of the number of distinct set-images {f_i(V')}. MNIK with K = 1 equals MNI.
type MNIK struct {
	// K is the subset size; values below 1 are treated as 1.
	K int
}

// Name implements Measure.
func (MNIK) Name() string { return NameMNIK }

// Compute implements Measure.
func (m MNIK) Compute(ctx *core.Context) (Result, error) {
	if err := requireMaterialized(ctx, NameMNIK); err != nil {
		return Result{}, err
	}
	k := m.K
	if k < 1 {
		k = 1
	}
	p := ctx.Pattern()
	if k > p.Size() {
		k = p.Size()
	}
	occs := ctx.Occurrences()
	if len(occs) == 0 {
		return Result{Measure: NameMNIK, Value: 0, Exact: true}, nil
	}
	subsets := p.ConnectedSubsets(k)
	if len(subsets) == 0 {
		return Result{}, fmt.Errorf("measures: pattern has no connected node subsets of size %d", k)
	}
	minSubset, minCount := minDistinctImages(ctx, subsets)
	return Result{
		Measure: NameMNIK,
		Value:   float64(minCount),
		Exact:   true,
		Witness: fmt.Sprintf("minimizing connected subset %v (k=%d) with %d distinct set images", minSubset, k, minCount),
	}, nil
}
