package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
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
	// One hyperedge per instance: the six occurrences are one triangle.
	hi := ctx.OccurrenceHypergraph()
	if hi.NumEdges() != 1 {
		t.Errorf("instance hypergraph edges = %d, want 1", hi.NumEdges())
	}
	if k, uniform := hi.IsUniform(); !uniform || k != 3 {
		t.Errorf("instance hypergraph should be 3-uniform, got k=%d uniform=%v", k, uniform)
	}
	// The instance hypergraph's vertex set is exactly the triangle.
	if got := hi.NumVertices(); got != 3 {
		t.Errorf("instance hypergraph vertices = %d, want 3", got)
	}
	if got := len(ctx.Occurrences()); got != 6 {
		t.Errorf("%d listed occurrences, want 6", got)
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
	a, errA := ctx.TransitiveNodeSubsets()
	b, errB := ctx.TransitiveNodeSubsets()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatalf("cached call returned a different result: %v vs %v", a, b)
	}
}

// TestTransitiveNodeSubsetsConcurrent pins the Context contract "safe for
// concurrent readers": MI and the structural-overlap MIS variant share one
// Context, so the lazily filled subsets must tolerate concurrent first use.
// Fails under -race when the first fill is unsynchronized.
func TestTransitiveNodeSubsetsConcurrent(t *testing.T) {
	fig := dataset.Figure4()
	for round := 0; round < 20; round++ {
		ctx := core.MustNewContext(fig.Graph, fig.Pattern, core.Options{})
		occs := ctx.Occurrences()
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%2 == 0 {
					ctx.ClassifyOverlap(occs[0], occs[len(occs)-1])
				} else if subsets, err := ctx.TransitiveNodeSubsets(); err != nil || len(subsets) == 0 {
					t.Errorf("no transitive node subsets: %v", err)
				}
			}(i)
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
	counts, err := ctx.CountOverlaps()
	if err != nil {
		t.Fatal(err)
	}
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
			ab := ctx.ClassifyOverlap(occs[i], occs[j])
			ba := ctx.ClassifyOverlap(occs[j], occs[i])
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
				k := ctx.ClassifyOverlap(occs[i], occs[j])
				if (k.Harmful || k.Structural) && !k.Simple {
					t.Errorf("%s: pair (%d,%d): harmful/structural without simple overlap: %+v", fig.Name, i, j, k)
				}
			}
		}
	}
}
