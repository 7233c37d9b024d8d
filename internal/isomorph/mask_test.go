package isomorph_test

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// domainMasks returns masks over snap for p, aligned with p.Nodes(): position
// i's mask holds node i's reference domain and, when loose, every third
// vertex of the snapshot besides; a position free says so is left nil.
func domainMasks(snap *graph.Snapshot, ref *reference, loose bool, free func(i int) bool) []isomorph.Mask {
	masks := make([]isomorph.Mask, len(ref.domains))
	for i, domain := range ref.domains {
		if free(i) {
			continue
		}
		m := isomorph.NewMask(snap.NumVertices())
		for v := range domain {
			x, _ := snap.IndexOf(v)
			m.Add(x)
		}
		if loose {
			for x := int32(0); x < int32(snap.NumVertices()); x += 3 {
				m.Add(x)
			}
		}
		masks[i] = m
	}
	return masks
}

// TestMaskedSearchExhaustive holds the search confined by Options.Masks to
// the reference matcher: on every pattern of up to four nodes of
// sweepSmallPatterns over exhaustiveGraph, on three shard geometries, one
// worker and four, masks that hold every node's domain — exactly, with other
// vertices besides, or on every other position only — leave one
// representative per instance and every node's domain, as the unconfined
// search does; so do the partial masks on every five-node pattern. Explain prices a masked position by its mask, and the exact
// masks search fewer roots over the sweep than no masks.
func TestMaskedSearchExhaustive(t *testing.T) {
	g := exhaustiveGraph()
	snaps := []*graph.Snapshot{sharded(g, 1), sharded(g, 2), sharded(g, 7)}
	none := func(int) bool { return false }
	odd := func(i int) bool { return i%2 == 1 }
	roots := func(snap *graph.Snapshot, p *pattern.Pattern, opts isomorph.Options) uint64 {
		before := obs.Default.CounterValue("repro_enum_roots_total")
		representatives(snap, p, opts)
		return obs.Default.CounterValue("repro_enum_roots_total") - before
	}
	var freeRoots, maskedRoots uint64
	patterns := sweepSmallPatterns(func(where string, p *pattern.Pattern) {
		ref := newReference(g, p)
		sym := isomorph.NewSymmetry(p)
		if p.Size() == 5 {
			// Five-node patterns cost the most and are the first where two
			// single-anchor depths share label and degree without being
			// automorphic, so their runs must not share a differently masked
			// slot: the partial masks, on one snapshot, sequentially.
			opts := isomorph.Options{Parallelism: 1, Symmetry: sym, Masks: domainMasks(snaps[1], ref, false, odd)}
			checkRepresentatives(t, where+" masks=even-only", ref, p, sym, representatives(snaps[1], p, opts))
			return
		}
		for _, snap := range snaps {
			variants := map[string][]isomorph.Mask{
				"exact":     domainMasks(snap, ref, false, none),
				"loose":     domainMasks(snap, ref, true, none),
				"even-only": domainMasks(snap, ref, false, odd),
			}
			for name, masks := range variants {
				for _, par := range []int{1, 4} {
					opts := isomorph.Options{Parallelism: par, Symmetry: sym, Masks: masks}
					checkRepresentatives(t, fmt.Sprintf("%s shards=%d par=%d masks=%s", where, snap.NumShards(), par, name), ref, p, sym, representatives(snap, p, opts))
				}
			}
		}
		exact := domainMasks(snaps[0], ref, false, none)
		for _, s := range isomorph.Explain(snaps[0], p, isomorph.Options{Masks: exact}).Steps {
			i := int(s.Node) // the sweep's nodes are numbered by position
			if want := exact[i].Count(); s.LabelCount != want {
				t.Fatalf("%s: explained node %d counts %d candidates, its mask holds %d", where, s.Node, s.LabelCount, want)
			}
		}
		freeRoots += roots(snaps[0], p, isomorph.Options{Parallelism: 1, Symmetry: sym})
		maskedRoots += roots(snaps[0], p, isomorph.Options{Parallelism: 1, Symmetry: sym, Masks: exact})
	})
	t.Logf("%d patterns swept; roots searched: %d unmasked, %d under exact masks", patterns, freeRoots, maskedRoots)
	if maskedRoots >= freeRoots {
		t.Fatalf("exact masks searched %d roots, no masks %d: the masks confine nothing", maskedRoots, freeRoots)
	}
}

// TestMaskValidation: masks of the wrong count or width are a programming
// error the search reports instead of indexing out of range.
func TestMaskValidation(t *testing.T) {
	g := exhaustiveGraph()
	snap := g.Freeze()
	p := starPattern()
	for name, masks := range map[string][]isomorph.Mask{
		"count": make([]isomorph.Mask, p.Size()-1),
		"width": {isomorph.NewMask(snap.NumVertices() + 64), nil, nil, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: masks %v were accepted", name, masks)
				}
			}()
			representatives(snap, p, isomorph.Options{Masks: masks})
		}()
	}
}
