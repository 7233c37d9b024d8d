package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

func TestNewContextFigure2(t *testing.T) {
	fig := dataset.Figure2()
	ctx, err := core.NewContext(fig.Graph, fig.Pattern, core.Options{})
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	if ctx.Graph() != fig.Graph || ctx.Pattern() != fig.Pattern {
		t.Error("context must expose its inputs")
	}
	if ctx.NumOccurrences() != 6 || ctx.NumInstances() != 1 {
		t.Fatalf("occurrences/instances = %d/%d, want 6/1", ctx.NumOccurrences(), ctx.NumInstances())
	}
	ho := ctx.OccurrenceHypergraph()
	if ho.NumEdges() != 6 {
		t.Errorf("occurrence hypergraph edges = %d, want 6", ho.NumEdges())
	}
	if k, uniform := ho.IsUniform(); !uniform || k != 3 {
		t.Errorf("occurrence hypergraph should be 3-uniform, got k=%d uniform=%v", k, uniform)
	}
	// The occurrence hypergraph's vertex set is exactly the triangle.
	if got := ho.NumVertices(); got != 3 {
		t.Errorf("occurrence hypergraph vertices = %d, want 3", got)
	}
	if s := ctx.String(); s == "" {
		t.Error("String should not be empty")
	}
}

func TestNewContextValidation(t *testing.T) {
	fig := dataset.Figure2()
	if _, err := core.NewContext(nil, fig.Pattern, core.Options{}); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := core.NewContext(fig.Graph, nil, core.Options{}); err == nil {
		t.Error("nil pattern should error")
	}
	ctx, err := core.NewContext(fig.Graph, fig.Pattern, core.Options{MaxOccurrences: 2})
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	if ctx.NumOccurrences() != 2 {
		t.Errorf("MaxOccurrences not honored: %d", ctx.NumOccurrences())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewContext should panic on error")
		}
	}()
	core.MustNewContext(nil, nil, core.Options{})
}

func TestContextNoOccurrences(t *testing.T) {
	// A pattern whose label does not exist in the data graph has no
	// occurrences, no instances, and empty hypergraphs.
	g := graph.NewBuilder("g").Vertices(1, 1, 2).Edge(1, 2).MustBuild()
	p := pattern.SingleEdge(7, 8)
	ctx, err := core.NewContext(g, p, core.Options{})
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	if ctx.NumOccurrences() != 0 || ctx.NumInstances() != 0 {
		t.Errorf("expected empty context, got %s", ctx)
	}
	if ctx.OccurrenceHypergraph().NumEdges() != 0 {
		t.Error("occurrence hypergraph should be empty")
	}
}

func TestTransitiveNodeSubsetsCaching(t *testing.T) {
	fig := dataset.Figure4()
	ctx := core.MustNewContext(fig.Graph, fig.Pattern, core.Options{})
	a := ctx.TransitiveNodeSubsets(isomorph.AllSubgraphs)
	b := ctx.TransitiveNodeSubsets(isomorph.AllSubgraphs)
	if len(a) != len(b) {
		t.Fatalf("cached call returned different result: %d vs %d", len(a), len(b))
	}
	if len(ctx.TransitiveNodeSubsets(isomorph.PatternOnly)) > len(a) {
		t.Error("PatternOnly subsets should not exceed AllSubgraphs subsets")
	}
}

// TestTransitiveNodeSubsetsConcurrent pins the Context contract "safe for
// concurrent readers": measures under different subgraph policies (MI and
// the structural-overlap MIS variant) share one Context, so the lazily
// filled cache must tolerate concurrent first use. Fails under -race (or
// dies with "concurrent map writes") when the cache is unsynchronized.
func TestTransitiveNodeSubsetsConcurrent(t *testing.T) {
	fig := dataset.Figure4()
	policies := []isomorph.SubgraphPolicy{isomorph.PatternOnly, isomorph.InducedSubpatterns, isomorph.AllSubgraphs}
	for round := 0; round < 20; round++ {
		ctx := core.MustNewContext(fig.Graph, fig.Pattern, core.Options{})
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(policy isomorph.SubgraphPolicy) {
				defer wg.Done()
				if len(ctx.TransitiveNodeSubsets(policy)) == 0 {
					t.Errorf("policy %d: no transitive node subsets", policy)
				}
			}(policies[i%len(policies)])
		}
		wg.Wait()
	}
}

func TestOverlapMatrixAndCounts(t *testing.T) {
	fig := dataset.Figure6()
	ctx := core.MustNewContext(fig.Graph, fig.Pattern, core.Options{})
	n := ctx.NumOccurrences()
	if n != 7 {
		t.Fatalf("expected 7 occurrences, got %d", n)
	}
	counts := ctx.CountOverlaps(isomorph.AllSubgraphs)
	if counts.Pairs != n*(n-1)/2 {
		t.Errorf("pairs = %d, want %d", counts.Pairs, n*(n-1)/2)
	}
	// Figure 6: four edges share hub 1 (6 overlapping pairs) and four share
	// hub 8 (6 pairs); the edge {1,8} belongs to both stars, and no other
	// pairs overlap, so 12 simple-overlap pairs in total.
	if counts.Simple != 12 {
		t.Errorf("simple overlaps = %d, want 12", counts.Simple)
	}
	if counts.Harmful > counts.Simple || counts.Structural > counts.Simple {
		t.Errorf("weaker overlap counts exceed simple overlaps: %+v", counts)
	}
	// Symmetry: classifying (a, b) must equal classifying (b, a).
	occs := ctx.Occurrences()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ab := ctx.ClassifyOverlap(occs[i], occs[j], isomorph.AllSubgraphs)
			ba := ctx.ClassifyOverlap(occs[j], occs[i], isomorph.AllSubgraphs)
			if ab.Simple != ba.Simple || ab.Structural != ba.Structural {
				t.Errorf("overlap classification not symmetric for pair (%d,%d): %+v vs %+v", i, j, ab, ba)
			}
		}
	}
}

func TestOverlapImplications(t *testing.T) {
	// Harmful and structural overlap must each imply simple overlap on every
	// figure fixture.
	for _, fig := range dataset.AllFigures() {
		ctx := core.MustNewContext(fig.Graph, fig.Pattern, core.Options{})
		occs := ctx.Occurrences()
		for i := 0; i < len(occs); i++ {
			for j := i + 1; j < len(occs); j++ {
				k := ctx.ClassifyOverlap(occs[i], occs[j], isomorph.AllSubgraphs)
				if (k.Harmful || k.Structural) && !k.Simple {
					t.Errorf("%s: pair (%d,%d): harmful/structural without simple overlap: %+v", fig.Name, i, j, k)
				}
			}
		}
	}
}
