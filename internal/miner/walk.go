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
// How a candidate is decided is the caller's evaluator; so a session's
// candidate set is a cold mine's by construction.
type walk struct {
	maxSize int
	// alphabet is the sorted label alphabet patterns grow over; a session
	// widens it when mutations bring new labels and never narrows it.
	alphabet []graph.Label
	// admitted holds the canonical code of every candidate the walk has
	// handed to an evaluator.
	admitted map[string]bool

	codes, extensions, duplicates int
}

// decision is what an evaluator says of one candidate.
type decision struct {
	// fp is the candidate's result line; only Mine's evaluator fills it, a
	// session assembles its result from the tracked set.
	fp       FrequentPattern
	frequent bool
	// unsearched marks a candidate pruned without a search.
	unsearched bool
	// domains holds the MNI domain of every position of a searched candidate
	// the next wave may be confined to; nil keeps the candidate out of the
	// level table.
	domains []isomorph.Mask
}

// evaluator decides one wave of candidates, aligned with the wave. table is
// the level table (see climb): nil for a wave with no level below it.
type evaluator func(wave []*pattern.Pattern, table map[string][]isomorph.Mask) ([]decision, error)

// newWalk returns a walk over snap's labels that grows patterns up to maxSize
// nodes.
func newWalk(snap *graph.Snapshot, maxSize int) *walk {
	return &walk{maxSize: maxSize, alphabet: snap.Labels(), admitted: make(map[string]bool)}
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
func (w *walk) seed(pairs [][2]graph.Label) []*pattern.Pattern {
	var wave []*pattern.Pattern
	for _, pr := range pairs {
		p := pattern.SingleEdge(pr[0], pr[1])
		if code := p.CanonicalCode(); !w.admitted[code] {
			w.admitted[code] = true
			w.codes++
			wave = append(wave, p)
		}
	}
	return wave
}

// grow appends to wave the extensions of the frequent pattern p that are new
// candidates. The size cap limits the number of pattern nodes, so a pattern
// already at the cap grows over the empty alphabet: its vertex extensions are
// never generated, while its internal edge extensions (which keep the node
// count) are still explored so that dense shapes like triangles are
// reachable.
func (w *walk) grow(wave []*pattern.Pattern, p *pattern.Pattern) []*pattern.Pattern {
	alphabet := w.alphabet
	if p.Size() >= w.maxSize {
		alphabet = nil
	}
	w.codes += p.GrowSteps(len(alphabet))
	for _, ext := range p.Extend(alphabet) {
		w.extensions++
		if code := ext.Result.CanonicalCode(); w.admitted[code] {
			w.duplicates++
		} else {
			w.admitted[code] = true
			wave = append(wave, ext.Result)
		}
	}
	return wave
}

// climb walks the lattice up from wave: it sorts each wave (patternOrder),
// hands it to eval, shows every decision to visit in wave order, and grows
// the next wave from the frequent candidates. visit may be nil; once it
// returns false the walk stops. The level table climb hands eval is every
// candidate of the previous wave that its decision gave domains, keyed by
// canonical code, the domains by canonical place (byPlace).
func (w *walk) climb(wave []*pattern.Pattern, eval evaluator, visit func(decision) bool) error {
	var table map[string][]isomorph.Mask
	for len(wave) > 0 {
		slices.SortFunc(wave, patternOrder)
		decisions, err := eval(wave, table)
		if err != nil {
			return err
		}
		var next []*pattern.Pattern
		table = nil
		for i, p := range wave {
			d := decisions[i]
			if visit != nil && !visit(d) {
				return nil
			}
			if d.domains != nil {
				if table == nil {
					table = make(map[string][]isomorph.Mask)
				}
				table[p.CanonicalCode()] = byPlace(p, d.domains)
			}
			if d.frequent {
				next = w.grow(next, p)
			}
		}
		wave = next
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

// byPlace reorders a pattern's per-position domains by canonical place, the
// naming every pattern isomorphic to p shares (pattern.CanonicalOrder).
func byPlace(p *pattern.Pattern, domains []isomorph.Mask) []isomorph.Mask {
	order := p.CanonicalOrder()
	rows := make([]isomorph.Mask, len(order))
	for a, pos := range order {
		rows[a] = domains[pos]
	}
	return rows
}

// subDomains returns, aligned with p.Nodes(), the intersection of the
// table's domains of the places every position of p takes in p's connected
// one-edge-smaller sub-patterns — nil for a position that no sub-pattern in
// the table places — and whether every sub-pattern was in the table. The
// table maps a canonical code to its domains by canonical place (byPlace),
// all over one snapshot; each intersection holds the position's image in
// every occurrence of p on it.
func subDomains(p *pattern.Pattern, table map[string][]isomorph.Mask) (masks []isomorph.Mask, complete bool) {
	masks = make([]isomorph.Mask, p.Size())
	complete = true
	for _, sub := range p.SubPatterns() {
		rows, ok := table[sub.Code]
		if !ok {
			complete = false
			continue
		}
		for a, pos := range sub.Places {
			if masks[pos] == nil {
				masks[pos] = slices.Clone(rows[a])
			} else {
				masks[pos].Intersect(rows[a])
			}
		}
	}
	return masks, complete
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
