package miner

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// walk is the miner's one lattice walk, shared by Miner.MineContext and an
// Incremental session's open and Refresh: it seeds one-edge candidates, grows
// every frequent pattern by one edge, de-duplicates candidates by canonical
// code and counts the generation work (Stats.Codes, Extensions, Duplicates).
// While it grows a wave it records, for every candidate, the witness of the
// parents that reached it (see witness). How a candidate is decided is the
// caller's evaluator; so a session's candidate set is a cold mine's by
// construction.
type walk struct {
	maxSize int
	// alphabet is the sorted label alphabet patterns grow over; a session
	// widens it when mutations bring new labels and never narrows it.
	alphabet []graph.Label
	// admitted holds the canonical code of every candidate the walk has
	// handed to an evaluator.
	admitted map[string]bool
	// seen is grow's scratch: the codes one parent's steps have reached.
	seen map[string]bool

	codes, extensions, duplicates int
}

// candidate is one pattern of a wave with its witness: nil when no parent
// with domains reached it, as in a wave with no level below it.
type candidate struct {
	p *pattern.Pattern
	w witness
}

// level is the next wave while the walk grows it: the candidates in the order
// they were admitted, each with the placements recorded so far, and by
// canonical code the index of each.
type level struct {
	wave   []candidate
	byCode map[string]int
}

// decision is what an evaluator says of one candidate.
type decision struct {
	// fp is the candidate's result line; only Mine's evaluator fills it, a
	// session assembles its result from the tracked set.
	fp       FrequentPattern
	frequent bool
	// unsearched marks a candidate pruned without a search.
	unsearched bool
	// domains holds the MNI domain of every position of a searched
	// candidate, aligned with its Nodes(), that the next wave's witnesses
	// take; nil leaves the candidate out of them.
	domains []isomorph.Mask
}

// evaluator decides one wave of candidates, aligned with the wave.
type evaluator func(wave []candidate) ([]decision, error)

// newWalk returns a walk over snap's labels that grows patterns up to maxSize
// nodes.
func newWalk(snap *graph.Snapshot, maxSize int) *walk {
	return &walk{maxSize: maxSize, alphabet: snap.Labels(), admitted: make(map[string]bool), seen: make(map[string]bool)}
}

// widen adds l to the alphabet and reports whether it was new.
func (w *walk) widen(l graph.Label) bool {
	i, found := slices.BinarySearch(w.alphabet, l)
	if !found {
		w.alphabet = slices.Insert(w.alphabet, i, l)
	}
	return !found
}

// seed returns the one-edge candidates of the given label pairs (each smaller
// label first, as labelPair makes them). A pair already seeded is skipped and
// not counted.
func (w *walk) seed(pairs [][2]graph.Label) []candidate {
	var wave []candidate
	for _, pr := range pairs {
		p := pattern.SingleEdge(pr[0], pr[1])
		if code := p.CanonicalCode(); !w.admitted[code] {
			w.admitted[code] = true
			w.codes++
			wave = append(wave, candidate{p: p})
		}
	}
	return wave
}

// readmit makes the session's tracked candidates exactly the admitted ones
// again after a failed climb, whose waves may have admitted candidates they
// never evaluated: growing their parents again admits them anew.
func (w *walk) readmit(tracked map[string]*trackedPattern) {
	clear(w.admitted)
	for code := range tracked {
		w.admitted[code] = true
	}
}

// alphabetFor returns the labels p grows over. The size cap limits the
// number of pattern nodes, so a pattern already at the cap grows over the
// empty alphabet: its vertex steps are never taken, while its internal edge
// steps (which keep the node count) are, so that dense shapes like triangles
// are reachable.
func (w *walk) alphabetFor(p *pattern.Pattern) []graph.Label {
	if p.Size() >= w.maxSize {
		return nil
	}
	return w.alphabet
}

// grow adds to next the extensions of the frequent pattern p that are new
// candidates — the first step of p that reaches a shape stands for it, as in
// pattern.Extend — and, when p has domains, places p in every candidate of
// next each of its steps reaches.
func (w *walk) grow(next *level, p *pattern.Pattern, domains []isomorph.Mask) {
	alphabet := w.alphabetFor(p)
	w.codes += p.GrowSteps(len(alphabet))
	clear(w.seen)
	p.Steps(alphabet, func(s pattern.Step) bool {
		if !w.seen[s.Code] {
			w.seen[s.Code] = true
			w.extensions++
			if w.admitted[s.Code] {
				w.duplicates++
			} else {
				w.admitted[s.Code] = true
				next.admit(s)
			}
		}
		if domains != nil {
			next.place(s, domains)
		}
		return true
	})
}

// admit appends the pattern s grows to the wave.
func (l *level) admit(s pattern.Step) {
	if l.byCode == nil {
		l.byCode = make(map[string]int)
	}
	l.byCode[s.Code] = len(l.wave)
	l.wave = append(l.wave, candidate{p: s.Pattern()})
}

// place records s, from a parent with the given domains, for the candidate
// it reaches, if that is in the wave.
func (l *level) place(s pattern.Step, domains []isomorph.Mask) {
	if i, ok := l.byCode[s.Code]; ok {
		l.wave[i].w = append(l.wave[i].w, placement{domains: domains, places: s.Places, edge: [2]int{s.Places[s.Edge[0]], s.Places[s.Edge[1]]}})
	}
}

// climb walks the lattice up from wave: it sorts each wave (patternOrder),
// hands it to eval, shows every decision to visit in wave order, and grows
// the next wave from the frequent candidates. visit may be nil; once it
// returns false the walk stops. Every candidate its decision gave domains
// places itself in the next wave's candidates: a frequent one as it grows
// them, any other — a session's boundary — once the wave is grown, through
// the same steps, admitting and counting nothing.
func (w *walk) climb(wave []candidate, eval evaluator, visit func(decision) bool) error {
	for len(wave) > 0 {
		slices.SortFunc(wave, func(a, b candidate) int { return patternOrder(a.p, b.p) })
		decisions, err := eval(wave)
		if err != nil {
			return err
		}
		var next level
		var boundary []int
		for i, c := range wave {
			d := decisions[i]
			if visit != nil && !visit(d) {
				return nil
			}
			if d.frequent {
				w.grow(&next, c.p, d.domains)
			} else if d.domains != nil {
				boundary = append(boundary, i)
			}
		}
		for _, i := range boundary {
			wave[i].p.Steps(w.alphabetFor(wave[i].p), func(s pattern.Step) bool {
				next.place(s, decisions[i].domains)
				return true
			})
		}
		wave = next.wave
	}
	return nil
}

// count copies the walk's generation counts into st.
func (w *walk) count(st *Stats) {
	st.Codes, st.Extensions, st.Duplicates = w.codes, w.extensions, w.duplicates
}

// patternOrder is the deterministic order of waves and results: by edge count
// (the level, since every grow step adds one edge), then canonical code.
func patternOrder(a, b *pattern.Pattern) int {
	return cmp.Or(cmp.Compare(a.NumEdges(), b.NumEdges()), strings.Compare(a.CanonicalCode(), b.CanonicalCode()))
}

// witness is what the grow steps that reached a candidate say of its
// domains. A step from parent P places P inside the candidate C: every
// occurrence of C restricts to an occurrence of P, so the images of C's node
// at the place P's node i takes lie in P's MNI domain of i. The steps' added
// edges say which one-edge-smaller sub-patterns the witness has heard from.
//
// The walk takes every step of every parent up to the parent's symmetry
// (pattern.Steps), so the steps reach C through one edge of each Aut(C)
// orbit at least, not through every edge: the witness closes both over C's
// automorphisms. An automorphism maps one
// edge's placement onto its image's, and domains are invariant under it, so
// the intersection over an orbit of places is the intersection over every
// edge whose removal leaves a parent — what taking C apart edge by edge
// would give.
type witness []placement

// placement is one grow step from a parent with domains.
type placement struct {
	// domains are the parent's, aligned with its Nodes(): the parent's node
	// at position i sits at canonical place places[i] of the candidate.
	domains []isomorph.Mask
	places  []int
	// edge is the added edge, as canonical places of the candidate.
	edge [2]int
}

// complete reports whether the witness has heard from every sub-pattern of
// p: whether every edge a grow step can add to reach p (GrownEdges) is one of
// the steps' added edges up to p's automorphisms (PairOrbit). Only one edge
// leads to each sub-pattern placement once p has two edges; a one-edge
// pattern — a seed, which has no witness — would have two leaves to drop.
func (wt witness) complete(p *pattern.Pattern) bool {
	k := p.Size()
	var small [64]bool
	covered := small[:] // by pair orbit
	if pairs := k * (k - 1) / 2; pairs > len(small) {
		covered = make([]bool, pairs)
	}
	for _, st := range wt {
		covered[p.PairOrbit(st.edge[0], st.edge[1])] = true
	}
	n := 0
	for b := 1; b < k; b++ {
		for a := 0; a < b; a++ {
			if covered[p.PairOrbit(a, b)] {
				n++
			}
		}
	}
	return n == p.GrownEdges()
}

// domains returns, aligned with p.Nodes(), the intersection of every domain
// the steps give the places of a node's orbit under p's automorphisms
// (PlaceOrbit), or nil for a node no step places. Nodes of one orbit share
// their mask.
func (wt witness) domains(p *pattern.Pattern) []isomorph.Mask {
	k := p.Size()
	rows := make([]isomorph.Mask, k) // by orbit, at its smallest place
	for _, st := range wt {
		for i, d := range st.domains {
			if o := p.PlaceOrbit(st.places[i]); rows[o] == nil {
				rows[o] = slices.Clone(d)
			} else {
				rows[o].Intersect(d)
			}
		}
	}
	masks := make([]isomorph.Mask, k)
	for a, pos := range p.CanonicalOrder() {
		masks[pos] = rows[p.PlaceOrbit(a)]
	}
	return masks
}

// seedPairs returns, sorted, every label pair (smaller label first) that
// appears on at least one edge of snap, collected in one pass over the CSR
// adjacency (visiting each undirected edge once, from its smaller endpoint).
func seedPairs(snap *graph.Snapshot) [][2]graph.Label {
	seen := make(map[[2]graph.Label]bool)
	for i := int32(0); i < int32(snap.NumVertices()); i++ {
		la := snap.LabelAt(i)
		for _, j := range snap.NeighborsAt(i) {
			if j > i {
				seen[labelPair(la, snap.LabelAt(j))] = true
			}
		}
	}
	pairs := make([][2]graph.Label, 0, len(seen))
	for pr := range seen {
		pairs = append(pairs, pr)
	}
	slices.SortFunc(pairs, comparePairs)
	return pairs
}

// labelPair returns the label pair of an edge whose endpoints carry a and b,
// smaller label first.
func labelPair(a, b graph.Label) [2]graph.Label {
	if a > b {
		a, b = b, a
	}
	return [2]graph.Label{a, b}
}

// comparePairs orders label pairs by first label, then second.
func comparePairs(a, b [2]graph.Label) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}
