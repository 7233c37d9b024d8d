package isomorph

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Symmetry is Aut(P) in the form the search and its consumers use it: the
// group's order, the orbit of every pattern node, and the automorphisms
// themselves as permutations of node positions, from which a search plan
// derives its ordering constraints. Everything is keyed by a node's position
// in Pattern.Nodes(), the order occurrences carry their images in. A Symmetry
// is immutable and belongs to the pattern alone, so one value serves every
// snapshot and every pass of a context.
//
// Handed to a search (Options.Symmetry) it turns the enumeration of
// occurrences into one of instances (Definition 2.1.9). Aut(P) acts freely on
// the occurrences — f∘σ is an occurrence with f's image for every
// automorphism σ, and f∘σ = f forces σ = id because f is injective — so the
// occurrences of one instance are exactly the |Aut(P)| maps f∘σ, and the
// search yields the one of them that satisfies the plan's ordering
// constraints (below). What a consumer may rely on is independent of which
// one that is: a representative f stands for Order() occurrences, and the
// images the instance gives the nodes of an orbit O — over all its
// occurrences, {f(σ(j)) : j ∈ O, σ} — are f(O), because σ permutes O.
type Symmetry struct {
	// perms[a][i] is the position automorphism a sends position i to.
	perms [][]int
	// orbitOf[i] is the orbit of position i; orbits are numbered in order of
	// their first position, so orbit r's first node is the r-th position that
	// starts a new orbit.
	orbitOf []int
	orbits  int
}

// NewSymmetry computes Aut(p) once, as p's automorphisms
// (Pattern.Automorphisms, in their order): nothing of it is keyed by node ID.
func NewSymmetry(p *pattern.Pattern) *Symmetry {
	s := &Symmetry{perms: p.Automorphisms(), orbitOf: make([]int, p.Size())}
	// The group's images of a position are its whole orbit, so the orbit of a
	// position is the smallest position any automorphism sends it to.
	for i := range s.orbitOf {
		first := i
		for _, perm := range s.perms {
			first = min(first, perm[i])
		}
		if first == i {
			s.orbitOf[i] = s.orbits
			s.orbits++
		} else {
			s.orbitOf[i] = s.orbitOf[first]
		}
	}
	return s
}

// Order returns |Aut(P)|, the number of occurrences of every instance.
func (s *Symmetry) Order() int { return len(s.perms) }

// NumOrbits returns the number of node orbits of Aut(P).
func (s *Symmetry) NumOrbits() int { return s.orbits }

// Perm returns automorphism a of Aut(P), for 0 ≤ a < Order(), as a
// permutation of node positions: Perm(a)[i] is the position it sends position
// i to. The copy f∘σ of an occurrence f under that automorphism σ maps the
// node at position i to f's image of position Perm(a)[i], so a consumer of
// representatives reads every occurrence of an instance off its one
// representative. The slice is shared and must not be modified.
func (s *Symmetry) Perm(a int) []int { return s.perms[a] }

// smallestCopy returns the automorphism whose copy of the occurrence with the
// given images — by position, in any numbering that orders vertices as their
// VertexIDs do, such as a snapshot's dense indexes — compares smallest (see
// Occurrence.Compare): the instance's occurrence that comes first in the
// canonical order.
func (s *Symmetry) smallestCopy(images []int32) []int {
	best := s.perms[0]
	for _, perm := range s.perms[1:] {
		for i, j := range perm {
			if a, b := images[j], images[best[i]]; a != b {
				if a < b {
					best = perm
				}
				break
			}
		}
	}
	return best
}

// Expand returns every occurrence of the given instances, each listed as one
// of its occurrences (EnumerateSnapshot under Options.Symmetry lists them so),
// in the canonical order: the copies f∘σ of every listed f under every
// automorphism σ, which is EnumerateSnapshot's full list of the snapshot the
// instances were found in.
func (s *Symmetry) Expand(instances []*Occurrence) []*Occurrence {
	var out []*Occurrence
	for _, in := range instances {
		for _, perm := range s.perms {
			images := make([]graph.VertexID, len(perm))
			for i, j := range perm {
				images[i] = in.ImageAt(j)
			}
			out = append(out, &Occurrence{nodes: in.nodes, images: images})
		}
	}
	SortOccurrences(out)
	return out
}

// OrbitOf returns the orbit, in 0..NumOrbits()-1, of the pattern node at
// position i of Pattern.Nodes(). Orbits are numbered by their first node, so
// position i starts orbit OrbitOf(i) exactly when no earlier position has it.
func (s *Symmetry) OrbitOf(i int) int { return s.orbitOf[i] }

// below derives the ordering constraints that single out one occurrence per
// instance under the given search order (order[d] is the node position
// matched at depth d), after Grochow and Kellis: take the node earliest in
// the order that the current group moves, require its image's dense index to
// lie below the image of every other node of its orbit, descend to its
// stabiliser, repeat until only the identity is left. Of an instance's
// occurrences f∘σ exactly those with f(σ(pivot)) = min f(orbit) pass a round —
// one coset of the stabiliser, which the next round splits the same way — so
// exactly one passes them all.
//
// The result is keyed by depth: below[d] lists, ascending, the depths whose
// assigned index the candidate at depth d must exceed. A node's orbit-mates
// are moved by the group too, so they all come after the pivot in the order:
// every constraint binds at its later node and is a lower bound there, which
// on a sorted candidate run is a place to start, not a test per candidate.
// Orbit-mates carry one label, so comparing dense indexes compares within
// one label class of one snapshot.
//
// group is the subgroup the rounds start from, the symmetry that is left to
// break: all of Aut(P) (s.perms) for a search free to root anywhere, and for a
// pinned search (PinnedSearch), which is handed the images of order[0] and
// order[1] rather than left to choose them, those positions' pointwise
// stabiliser — the occurrences f∘σ of an instance that agree with f on the
// pinned arc are those with σ in the stabiliser (f is injective), one coset,
// and the same rounds leave one of them. The constraints name depths, not
// dense indexes, so a pinned search derives them once when it is compiled and
// every run on every snapshot applies the same ones. The planner walks the same
// rounds one depth at a time as it grows an order (pricer.breakSymmetry), so
// it prices each depth with the constraints this derives for it.
func (s *Symmetry) below(order []int, group [][]int) [][]int {
	if len(order) != len(s.orbitOf) {
		panic(fmt.Sprintf("isomorph: symmetry of a %d-node pattern handed to the search of a %d-node one", len(s.orbitOf), len(order)))
	}
	below := make([][]int, len(order))
	depthOf := make([]int, len(order))
	for d, i := range order {
		depthOf[i] = d
	}
	for d := 0; len(group) > 1; d++ {
		pivot := order[d]
		var stabiliser [][]int
		for _, perm := range group {
			mate := perm[pivot]
			if mate == pivot {
				stabiliser = append(stabiliser, perm)
			} else if b := below[depthOf[mate]]; len(b) == 0 || b[len(b)-1] != d {
				// Depths arrive in ascending order, so a mate this round has
				// already bound ends its list with d.
				below[depthOf[mate]] = append(b, d)
			}
		}
		group = stabiliser
	}
	return below
}

// stabiliser returns the automorphisms that fix positions a and b.
func (s *Symmetry) stabiliser(a, b int) [][]int {
	var fixing [][]int
	for _, perm := range s.perms {
		if perm[a] == a && perm[b] == b {
			fixing = append(fixing, perm)
		}
	}
	return fixing
}

// swaps reports whether some automorphism maps position a to b and b to a.
func (s *Symmetry) swaps(a, b int) bool {
	return slices.ContainsFunc(s.perms, func(perm []int) bool { return perm[a] == b && perm[b] == a })
}

// EdgeOrbits returns one arc (a, b) per orbit of Aut(P) on p's edges, as
// positions of p.Nodes() with a < b: the edge of the orbit that comes first
// by (a, b), and orbits in that order too. p must be the pattern s is the
// symmetry of. Every edge of p is the image of exactly one returned arc's
// edge under some automorphism, which is what lets a search pinned at each of
// them in turn (PinnedSearch) meet every edge an instance maps onto a data
// edge.
func (s *Symmetry) EdgeOrbits(p *pattern.Pattern) [][2]int {
	var arcs [][2]int
	nodes := p.Nodes()
	for _, e := range p.Edges() {
		a, b := nodePos(nodes, e.U), nodePos(nodes, e.V)
		first := true
		for _, perm := range s.perms {
			x, y := min(perm[a], perm[b]), max(perm[a], perm[b])
			if x < a || x == a && y < b {
				first = false
				break
			}
		}
		if first {
			arcs = append(arcs, [2]int{a, b})
		}
	}
	return arcs
}
