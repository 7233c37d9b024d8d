package miner

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// refSub is one connected sub-pattern of a pattern with one edge fewer,
// placed in it: places[a] is the pattern position of the sub-pattern's node
// at canonical place a.
type refSub struct {
	p      *pattern.Pattern
	places []int
}

// subPatterns is the reference the witnesses replaced, taking p apart one
// edge at a time: without an edge on a cycle p keeps every node; without an
// edge to a leaf it is connected once the leaf goes too; without any other
// bridge it falls apart and gives nothing for that edge. Isomorphic
// sub-patterns reached through different edges are listed once per edge.
func subPatterns(p *pattern.Pattern) []refSub {
	nodes := p.Nodes()
	k := len(nodes)
	build := func(drop, cutI, cutJ int) *pattern.Pattern {
		g := graph.New("sub")
		for i, v := range nodes {
			if i != drop {
				g.MustAddVertex(graph.VertexID(i), p.LabelOf(v))
			}
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if i != drop && j != drop && (i != cutI || j != cutJ) && p.HasEdge(nodes[i], nodes[j]) {
					g.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
				}
			}
		}
		if !g.IsConnected() {
			return nil
		}
		return pattern.MustNew(g)
	}
	place := func(sub *pattern.Pattern) refSub {
		ids := sub.Nodes() // pattern positions, ascending
		places := sub.CanonicalOrder()
		for a, pos := range places {
			places[a] = int(ids[pos])
		}
		return refSub{p: sub, places: places}
	}
	var out []refSub
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if !p.HasEdge(nodes[i], nodes[j]) {
				continue
			}
			if sub := build(-1, i, j); sub != nil {
				out = append(out, place(sub))
				continue
			}
			for _, leaf := range [2]int{i, j} {
				if p.Degree(nodes[leaf]) == 1 {
					out = append(out, place(build(leaf, i, j)))
				}
			}
		}
	}
	return out
}

// subDomains is what the miner computed before witnesses: aligned with
// p.Nodes(), the intersection of the table's domains of the places every
// position of p takes in p's sub-patterns — nil for a position no
// sub-pattern in the table places — and whether every sub-pattern was in the
// table. The table maps a canonical code to its domains by canonical place.
func subDomains(p *pattern.Pattern, table map[string][]isomorph.Mask) (masks []isomorph.Mask, complete bool) {
	masks = make([]isomorph.Mask, p.Size())
	complete = true
	for _, sub := range subPatterns(p) {
		rows, ok := table[sub.p.CanonicalCode()]
		if !ok {
			complete = false
			continue
		}
		for a, pos := range sub.places {
			if masks[pos] == nil {
				masks[pos] = slices.Clone(rows[a])
			} else {
				masks[pos].Intersect(rows[a])
			}
		}
	}
	return masks, complete
}

// byPlace reorders a pattern's per-position domains by canonical place.
func byPlace(p *pattern.Pattern, domains []isomorph.Mask) []isomorph.Mask {
	order := p.CanonicalOrder()
	rows := make([]isomorph.Mask, len(order))
	for a, pos := range order {
		rows[a] = domains[pos]
	}
	return rows
}

// requireWitnessMatches holds c's witness, closed over c's automorphisms, to
// subDomains over table: the same mask (or nil) at every position and the
// same completeness.
func requireWitnessMatches(t testing.TB, c candidate, table map[string][]isomorph.Mask, tag string) {
	t.Helper()
	want, wantComplete := subDomains(c.p, table)
	got, gotComplete := c.w.domains(c.p), c.w.complete(c.p)
	if gotComplete != wantComplete {
		t.Fatalf("%s: %s: witness of %d steps complete = %v, sub-patterns say %v", tag, c.p, len(c.w), gotComplete, wantComplete)
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) || !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: %s: position %d confined to %d vertices by the witness, %d by the sub-patterns (nil: %v, %v)",
				tag, c.p, i, got[i].Count(), want[i].Count(), got[i] == nil, want[i] == nil)
		}
	}
}

// checkedEval wraps eval: before a wave is decided, every candidate's witness
// must match subDomains over the table of the previous wave's decisions that
// carried domains; a wave with no such level below it must have no
// witnesses. It counts the candidates it checked.
func checkedEval(t testing.TB, eval evaluator, tag string, checked *int) evaluator {
	var table map[string][]isomorph.Mask
	return func(wave []candidate) ([]decision, error) {
		for _, c := range wave {
			if table == nil {
				if c.w != nil {
					t.Fatalf("%s: %s has a witness of %d steps with no level below it", tag, c.p, len(c.w))
				}
				continue
			}
			requireWitnessMatches(t, c, table, tag)
			*checked++
		}
		decisions, err := eval(wave)
		table = nil
		for i, d := range decisions {
			if d.domains != nil {
				if table == nil {
					table = make(map[string][]isomorph.Mask)
				}
				table[wave[i].p.CanonicalCode()] = byPlace(wave[i].p, d.domains)
			}
		}
		return decisions, err
	}
}

// checkWitnesses grows g's candidates at every shard count in {1, 2, 7} and
// parallelism in {1, 4} (candidates and enumeration alike), through a cold
// mine's walk and a session open's, and holds every witness to subDomains
// over the previous wave: its frequent patterns for the mine, every
// candidate for the open. It returns how many witnesses it checked at the
// last setting.
func checkWitnesses(t testing.TB, g *graph.Graph, minSupport float64, maxSize int) (checked int) {
	t.Helper()
	for _, shards := range []int{1, 2, 7} {
		for _, par := range []int{1, 4} {
			cfg := Config{MinSupport: minSupport, MaxPatternSize: maxSize, EnumShards: shards, EnumParallelism: par, Parallelism: par}
			tag := fmt.Sprintf("%d vertices, minsup %v, maxsize %d, shards %d, parallelism %d", g.NumVertices(), minSupport, maxSize, shards, par)
			checked = 0
			m, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := newWalk(m.snap, m.cfg.MaxPatternSize)
			eval := func(wave []candidate) ([]decision, error) { return m.evaluateLevel(context.Background(), wave) }
			if err := w.climb(w.seed(seedPairs(m.snap)), checkedEval(t, eval, "mine, "+tag, &checked), nil); err != nil {
				t.Fatal(err)
			}

			// The session's open once more, on a fresh walk and tracked set.
			inc, err := NewIncremental(g.Clone(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			inc.walk, inc.tracked = newWalk(inc.snap, inc.cfg.MaxPatternSize), make(map[string]*trackedPattern)
			err = inc.walk.climb(inc.walk.seed(seedPairs(inc.snap)), checkedEval(t, inc.track(true), "session, "+tag, &checked), nil)
			inc.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return checked
}

// syntheticDomains gives p's positions masks over 256 vertices that depend
// only on p's code and the Aut orbit of the position's canonical place, as
// MNI domains do, dense enough that intersections of several stay non-empty.
func syntheticDomains(p *pattern.Pattern) []isomorph.Mask {
	out := make([]isomorph.Mask, p.Size())
	for a, pos := range p.CanonicalOrder() {
		orbit := p.PlaceOrbit(a)
		mask := isomorph.NewMask(256)
		for v := int32(0); v < 256; v++ {
			h := fnv.New32a()
			fmt.Fprintf(h, "%s/%d/%d", p.CanonicalCode(), orbit, v)
			if h.Sum32()%10 < 8 {
				mask.Add(v)
			}
		}
		out[pos] = mask
	}
	return out
}

// TestWitnessesMatchSubDomains holds the witnesses the walk's grow steps make
// to the sub-patterns they replaced.
//
// First on every connected pattern of three to five nodes over two labels
// (the walk's one-edge patterns are seeds, with no witness): each
// one-edge-smaller parent gets synthetic Aut-invariant domains, and the
// witness of all parents' grow steps — and of all but one parent's, for each
// parent — closed over the pattern's automorphisms, must equal subDomains
// over the same parents, complete exactly when every sub-pattern is present.
//
// Then on the work ledger's cold-mine graph and its session graph: every
// candidate's masks and completeness, as a cold mine's and a session open's
// walks grow them, must equal subDomains', at shards {1, 2, 7} × parallelism
// {1, 4}.
func TestWitnessesMatchSubDomains(t *testing.T) {
	labels := []graph.Label{1, 2}
	seen := make(map[string]bool)
	for k := 3; k <= 5; k++ {
		var pairs [][2]int
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		for edges := 1; edges < 1<<len(pairs); edges++ {
			for lab := 0; lab < 1<<k; lab++ {
				g := graph.New("p")
				for i := 0; i < k; i++ {
					g.MustAddVertex(graph.VertexID(i), labels[lab>>i&1])
				}
				for b, e := range pairs {
					if edges>>b&1 == 1 {
						g.MustAddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
					}
				}
				if !g.IsConnected() {
					continue
				}
				p := pattern.MustNew(g)
				if seen[p.CanonicalCode()] {
					continue
				}
				seen[p.CanonicalCode()] = true
				checkSyntheticWitness(t, p, labels)
			}
		}
	}
	t.Logf("%d connected patterns of three to five nodes over two labels", len(seen))

	for _, c := range []struct {
		name       string
		g          *graph.Graph
		minSupport float64
		maxSize    int
	}{
		{"mine-cold", gen.BarabasiAlbert(400, 2, gen.UniformLabels{K: 3}, 1), 10, 4},
		{"session", gen.BarabasiAlbert(4096, 2, gen.UniformLabels{K: 3}, 1), 100, 3},
	} {
		n := checkWitnesses(t, c.g, c.minSupport, c.maxSize)
		t.Logf("%s: %d witnesses checked at the last setting", c.name, n)
		if n == 0 {
			t.Fatalf("%s: no witness was checked", c.name)
		}
	}
}

// checkSyntheticWitness checks p's witness from its sub-patterns with
// synthetic domains: from all of them, and from all but each one in turn.
func checkSyntheticWitness(t *testing.T, p *pattern.Pattern, labels []graph.Label) {
	t.Helper()
	parents := make(map[string]*pattern.Pattern)
	var codes []string
	for _, sub := range subPatterns(p) {
		if code := sub.p.CanonicalCode(); parents[code] == nil {
			parents[code] = sub.p
			codes = append(codes, code)
		}
	}
	for absent := -1; absent < len(codes); absent++ {
		table := make(map[string][]isomorph.Mask)
		next := level{wave: []candidate{{p: p}}, byCode: map[string]int{p.CanonicalCode(): 0}}
		for i, code := range codes {
			if i == absent {
				continue
			}
			parent := parents[code]
			domains := syntheticDomains(parent)
			table[code] = byPlace(parent, domains)
			parent.Steps(labels, func(s pattern.Step) bool {
				next.place(s, domains)
				return true
			})
		}
		tag := fmt.Sprintf("%d sub-pattern codes", len(codes))
		if absent >= 0 {
			tag += ", without " + codes[absent]
		}
		requireWitnessMatches(t, next.wave[0], table, tag)
	}
}
