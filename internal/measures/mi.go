package measures

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
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
// context computes them once. The images are counted off the context's
// instance rank tuples (Context.InstanceRanks), not its occurrences: once per
// Aut(P) class of subsets, by a radix sort of the images' ranks with no map
// and no allocation per image (minDistinctImages). A pattern of more than 64
// nodes is an error.
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
// images counted. The occurrences are read off the instances: an instance's
// occurrences are f∘σ for its listed f and every automorphism σ, and
// (f∘σ)(W) = f(σ(W)), so the set-images of W are f(S) for f over the
// instances and S over W's orbit under Aut(P) — its distinct position sets
// σ(W), not |Aut(P)| of them. The images of every set of that orbit are the
// same, so the orbit is counted once, under its smallest position bitmask,
// and every later subset of it reads that count. The counting itself is
// imageCounter's, over the instances' rank tuples (Context.InstanceRanks).
func minDistinctImages(ctx *core.Context, subsets [][]pattern.NodeID) ([]pattern.NodeID, int) {
	nodes, sizes, sym := ctx.Pattern().Nodes(), ctx.MNIDomainSizes(), ctx.Symmetry()
	images := newImageCounter(ctx.InstanceRanks(), len(nodes), ctx.OccurrenceHypergraph().NumVertices())
	type class struct {
		key   uint64 // the orbit's smallest position bitmask
		count int
	}
	var (
		classes []class
		orbit   []uint64 // the subset's position bitmasks σ(W)
	)
	minCount := -1
	var minSubset []pattern.NodeID
	for _, subset := range subsets {
		var set uint64
		for _, n := range subset {
			if i, ok := slices.BinarySearch(nodes, n); ok {
				set |= 1 << i
			}
		}
		var count int
		if bits.OnesCount64(set) == 1 {
			count = sizes[bits.TrailingZeros64(set)]
		} else {
			orbit = orbit[:0]
			for a := 0; a < sym.Order(); a++ {
				var image uint64
				for m, perm := set, sym.Perm(a); m != 0; m &= m - 1 {
					image |= 1 << perm[bits.TrailingZeros64(m)]
				}
				if !slices.Contains(orbit, image) {
					orbit = append(orbit, image)
				}
			}
			key := slices.Min(orbit)
			if j := slices.IndexFunc(classes, func(c class) bool { return c.key == key }); j >= 0 {
				count = classes[j].count
			} else {
				count = images.distinct(orbit)
				classes = append(classes, class{key, count})
			}
		}
		if minCount < 0 || count < minCount {
			minCount = count
			minSubset = subset
		}
	}
	return minSubset, minCount
}

// imageCounter counts the distinct images of position sets over instances
// given as rank tuples, k ranks below n to an instance: an image is the set
// of its instance's ranks at the set's positions. Ranks order as VertexIDs
// do, so distinct images of ranks are distinct images of vertices. The
// images of s ranks each, their ranks ascending, are laid end to end and
// put in order by one stable counting pass per rank position, last first —
// a radix sort of the tuples over ranks below n, whatever s and n are —
// and the distinct ones are counted in that order. Its buffers are reused
// from one count to the next, so no image allocates.
type imageCounter struct {
	ranks []int32
	k, n  int

	images       []int32 // the images, s ranks each, ranks ascending
	order, spare []int32 // the images' order and the radix passes' other buffer
	counts       []int32 // a radix pass's bucket starts, n+1 of them
}

func newImageCounter(ranks []int32, k, n int) *imageCounter {
	return &imageCounter{ranks: ranks, k: k, n: n}
}

// distinct returns the number of distinct images of the position sets in
// orbit, all of one size, over every instance.
func (c *imageCounter) distinct(orbit []uint64) int {
	s := bits.OnesCount64(orbit[0])
	c.images = slices.Grow(c.images[:0], len(c.ranks)/c.k*len(orbit)*s)
	for t := 0; t < len(c.ranks); t += c.k {
		for _, set := range orbit {
			at := len(c.images)
			for m := set; m != 0; m &= m - 1 {
				r := c.ranks[t+bits.TrailingZeros64(m)]
				j := len(c.images)
				c.images = append(c.images, r)
				for ; j > at && c.images[j-1] > r; j-- {
					c.images[j] = c.images[j-1]
				}
				c.images[j] = r
			}
		}
	}
	m := len(c.images) / s
	order := slices.Grow(c.order[:0], m)[:m]
	spare := slices.Grow(c.spare[:0], m)[:m]
	for j := range order {
		order[j] = int32(j)
	}
	if c.counts == nil {
		c.counts = make([]int32, c.n+1)
	}
	for p := s - 1; p >= 0; p-- {
		clear(c.counts)
		for i := p; i < len(c.images); i += s {
			c.counts[c.images[i]+1]++
		}
		for x := 1; x <= c.n; x++ {
			c.counts[x] += c.counts[x-1]
		}
		for _, j := range order {
			r := c.images[int(j)*s+p]
			spare[c.counts[r]] = j
			c.counts[r]++
		}
		order, spare = spare, order
	}
	c.order, c.spare = order, spare
	count := 0
	var last []int32
	for _, j := range order {
		image := c.images[int(j)*s : int(j+1)*s]
		if last == nil || !slices.Equal(image, last) {
			count++
		}
		last = image
	}
	return count
}
