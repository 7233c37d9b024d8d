package measures

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// MI is the minimum instance support measure introduced in Section 3.2: the
// minimum, over all transitive node subsets T of subgraphs of the pattern, of
// the number of distinct set-images {f_i(T)} across occurrences.
//
// Because every singleton {v} is a transitive node subset, σ_MI ≤ σ_MNI
// (Theorem 3.4); because a cover of the minimizing subset's images covers the
// whole occurrence hypergraph, σ_MVC ≤ σ_MI (Theorem 3.6). MI is
// anti-monotonic (Theorem 3.2) and linear-time in the number of occurrences
// once the pattern's transitive node subsets are known (Theorem 3.3); the
// subsets depend only on the (small) pattern, not on the data graph.
type MI struct {
	// Policy selects which subgraphs of the pattern contribute transitive
	// node subsets. The zero value selects isomorph.PatternOnly (fast but not
	// anti-monotonic under every extension); most callers should use
	// DefaultMIPolicy, the faithful reading of Definition 3.2.4.
	Policy isomorph.SubgraphPolicy
}

// DefaultMIPolicy is the subgraph policy used by the registry and the public
// facade: orbits of every connected (partial) subgraph of the pattern. It is
// the only policy that is anti-monotonic under arbitrary pattern extensions.
const DefaultMIPolicy = isomorph.AllSubgraphs

// NewMI returns the MI measure with the default subgraph policy.
func NewMI() MI { return MI{Policy: DefaultMIPolicy} }

// Name implements Measure.
func (MI) Name() string { return NameMI }

// Compute implements Measure.
func (m MI) Compute(ctx *core.Context) (Result, error) {
	if err := requireMaterialized(ctx, NameMI); err != nil {
		return Result{}, err
	}
	occs := ctx.Occurrences()
	if len(occs) == 0 {
		return Result{Measure: NameMI, Value: 0, Exact: true}, nil
	}
	policy := m.Policy
	subsets := ctx.TransitiveNodeSubsets(policy)
	if len(subsets) == 0 {
		return Result{}, fmt.Errorf("measures: pattern yielded no transitive node subsets")
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
// images hashed, through one key buffer, one image buffer and one map reused
// across occurrences and subsets.
func minDistinctImages(ctx *core.Context, subsets [][]pattern.NodeID) ([]pattern.NodeID, int) {
	occs, nodes, sizes := ctx.Occurrences(), ctx.Pattern().Nodes(), ctx.MNIDomainSizes()
	minCount := -1
	var minSubset []pattern.NodeID
	var (
		at     []int // positions of the subset's nodes in an occurrence
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
			if images == nil {
				images = make(map[string]bool, len(occs))
			}
			clear(images)
			for _, o := range occs {
				image = image[:0]
				for _, i := range at {
					image = append(image, o.ImageAt(i))
				}
				// An occurrence is injective, so only a node repeated in the
				// subset repeats an image.
				slices.Sort(image)
				image = slices.Compact(image)
				// Varints are prefix-free, so distinct sorted images get
				// distinct keys with no separator.
				key = key[:0]
				for _, v := range image {
					key = binary.AppendVarint(key, int64(v))
				}
				// The lookup converts without allocating; only a new image
				// pays for its string.
				if !images[string(key)] {
					images[string(key)] = true
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
