package isomorph

import (
	"fmt"

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

// NewSymmetry computes Aut(p) once (Automorphisms) and indexes it by node
// position.
func NewSymmetry(p *pattern.Pattern) *Symmetry {
	nodes := p.Nodes()
	autos := Automorphisms(p.Graph())
	s := &Symmetry{perms: make([][]int, len(autos)), orbitOf: make([]int, len(nodes))}
	flat := make([]int, len(autos)*len(nodes))
	for a, auto := range autos {
		perm := flat[a*len(nodes) : (a+1)*len(nodes)]
		for i, v := range nodes {
			perm[i] = nodePos(nodes, auto[v])
		}
		s.perms[a] = perm
	}
	// The group's images of a position are its whole orbit, so the orbit of a
	// position is the smallest position any automorphism sends it to.
	for i := range nodes {
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
// pinned search (PinnedSearch), which is handed the image of order[0]
// rather than left to choose it, that position's stabiliser — the occurrences
// f∘σ of an instance that agree with f on the pinned node are those with σ in
// the stabiliser (f is injective), one coset, and the same rounds leave one of
// them. The constraints name depths, not dense indexes, so a pinned search
// derives them once when it is compiled and every run on every snapshot
// applies the same ones.
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

// stabiliser returns the automorphisms that fix position i.
func (s *Symmetry) stabiliser(i int) [][]int {
	var fixing [][]int
	for _, perm := range s.perms {
		if perm[i] == i {
			fixing = append(fixing, perm)
		}
	}
	return fixing
}
