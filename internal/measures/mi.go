package measures

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// MI is the minimum instance support measure introduced in Section 3.2: the
// minimum, over all transitive node subsets T of the pattern — sets of nodes
// in one orbit of some connected subgraph of it (Definition 3.2.4,
// pattern.Pattern.TransitiveNodeSubsets) — of the number of distinct
// set-images {f_i(T)} across occurrences. MI has no configuration: MI{} is the
// paper's measure.
//
// Because every singleton {v} is a transitive node subset, σ_MI ≤ σ_MNI
// (Theorem 3.4); because a cover of the minimizing subset's images covers the
// whole instance hypergraph, σ_MVC ≤ σ_MI (Theorem 3.6). MI is
// anti-monotonic (Theorem 3.2) and linear-time in the number of occurrences
// once the pattern's transitive node subsets are known (Theorem 3.3); the
// subsets depend only on the (small) pattern, not on the data graph, and a
// context computes them once. A pattern of more than 64 nodes is an error.
type MI struct{}

// Name implements Measure.
func (MI) Name() string { return NameMI }

// Compute implements Measure.
func (MI) Compute(ctx *core.Context) (Result, error) {
	if err := requireMaterialized(ctx, NameMI); err != nil {
		return Result{}, err
	}
	if ctx.NumOccurrences() == 0 {
		return Result{Measure: NameMI, Value: 0, Exact: true}, nil
	}
	subsets, err := ctx.TransitiveNodeSubsets()
	if err != nil {
		return Result{}, err
	}
	minSubset, minCount := minDistinctImages(ctx, subsets)
	return Result{
		Measure: NameMI,
		Value:   float64(minCount),
		Exact:   true,
		Witness: fmt.Sprintf("minimizing transitive node subset %v with %d distinct set images", minSubset, minCount),
	}, nil
}

// minDistinctImages returns the subset with the fewest distinct set-images
// {f_i(subset)} across the context's occurrences, and that number: the
// minimization MI runs over transitive node subsets and MNIK over connected
// k-subsets. The first minimizing subset in the given order wins. subsets
// must not be empty.
//
// A singleton's distinct images are its node's MNI domain, whose size the
// context counted while it was built; only a subset of several nodes has its
// images hashed. The occurrences are read off the instances: an instance's
// occurrences are f∘σ for its listed f and every automorphism σ, and
// (f∘σ)(W) = f(σ(W)), so the set-images of W are f(S) for f over the
// instances and S over the distinct position sets σ(W) — as many as W's
// orbit under Aut(P), not |Aut(P)|. One key buffer, one image buffer and one
// map are reused across instances and subsets.
func minDistinctImages(ctx *core.Context, subsets [][]pattern.NodeID) ([]pattern.NodeID, int) {
	instances, nodes, sizes, sym := ctx.Instances(), ctx.Pattern().Nodes(), ctx.MNIDomainSizes(), ctx.Symmetry()
	minCount := -1
	var minSubset []pattern.NodeID
	var (
		at     []int   // positions of the subset's nodes
		sets   [][]int // the distinct position sets σ(at), each sorted
		image  []graph.VertexID
		key    []byte
		images map[string]bool
	)
	for _, subset := range subsets {
		at = at[:0]
		for _, n := range subset {
			if i, ok := slices.BinarySearch(nodes, n); ok {
				at = append(at, i)
			}
		}
		count := 0
		if len(at) == 1 {
			count = sizes[at[0]]
		} else {
			sets = sets[:0]
			for a := 0; a < sym.Order(); a++ {
				perm := sym.Perm(a)
				set := make([]int, len(at))
				for j, i := range at {
					set[j] = perm[i]
				}
				slices.Sort(set)
				if !slices.ContainsFunc(sets, func(s []int) bool { return slices.Equal(s, set) }) {
					sets = append(sets, set)
				}
			}
			if images == nil {
				images = make(map[string]bool, len(instances))
			}
			clear(images)
			for _, in := range instances {
				for _, set := range sets {
					image = image[:0]
					for _, i := range set {
						image = append(image, in.ImageAt(i))
					}
					// An occurrence is injective, so only a node repeated in
					// the subset repeats an image.
					slices.Sort(image)
					image = slices.Compact(image)
					// Varints are prefix-free, so distinct sorted images get
					// distinct keys with no separator.
					key = key[:0]
					for _, v := range image {
						key = binary.AppendVarint(key, int64(v))
					}
					// The lookup converts without allocating; only a new
					// image pays for its string.
					if !images[string(key)] {
						images[string(key)] = true
					}
				}
			}
			count = len(images)
		}
		if minCount < 0 || count < minCount {
			minCount = count
			minSubset = subset
		}
	}
	return minSubset, minCount
}
