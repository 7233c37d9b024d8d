package graph

import "testing"

func TestLabelCountAndAvgDegree(t *testing.T) {
	g := buildTestGraph() // labels: 1 x2, 2 x1, 3 x1; |V|=4, |E|=4
	for _, shards := range []int{1, 2, 4} {
		snap := g.FreezeSharded(FreezeOptions{Shards: shards})
		if got := snap.LabelCount(1); got != 2 {
			t.Errorf("shards=%d: LabelCount(1) = %d, want 2", shards, got)
		}
		if got := snap.LabelCount(2); got != 1 {
			t.Errorf("shards=%d: LabelCount(2) = %d, want 1", shards, got)
		}
		if got := snap.LabelCount(99); got != 0 {
			t.Errorf("shards=%d: LabelCount(99) = %d, want 0", shards, got)
		}
		if got, want := snap.AvgDegree(), 2.0; got != want {
			t.Errorf("shards=%d: AvgDegree = %g, want %g", shards, got, want)
		}
	}
}

func TestAvgDegreeEmptySnapshot(t *testing.T) {
	if got := New("empty").Freeze().AvgDegree(); got != 0 {
		t.Fatalf("AvgDegree of empty snapshot = %g, want 0", got)
	}
}
