package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// flatSnapshot reads a snapshot's rows from one column array per shard, as
// NeighborsAt did before the columns were cut into blocks.
type flatSnapshot struct {
	shift  uint
	size   int32
	rowPtr [][]int32
	col    [][]int32
}

func (f *flatSnapshot) neighborsAt(i int32) []int32 {
	k, j := i>>f.shift, i&(f.size-1)
	rp := f.rowPtr[k]
	return f.col[k][rp[j]:rp[j+1]]
}

// BenchmarkNeighborsAt prices the block table on the read path. Each
// iteration walks every row of a heap BA(2^15, 3) snapshot in 16 shards, in
// a shuffled order, and filters the row as the search kernels' filterRun
// does, by label and degree. "blocked" reads rows through NeighborsAt;
// "flat" reads the same rows from a copy of each shard's columns in one
// array, with no table load. Labels and degrees come from the snapshot in
// both.
func BenchmarkNeighborsAt(b *testing.B) {
	s := gen.BarabasiAlbert(1<<15, 3, gen.UniformLabels{K: 4}, 1).FreezeSharded(graph.FreezeOptions{Shards: 16})
	rowPtr, col := graph.FlatRows(s)
	flat := &flatSnapshot{size: int32(s.ShardSize()), rowPtr: rowPtr, col: col}
	for 1<<flat.shift < s.ShardSize() {
		flat.shift++
	}
	order := gen.NewRNG(2).Perm(s.NumVertices())
	filter := func(row []int32) (kept int) {
		for _, c := range row {
			if s.LabelAt(c) == 0 && s.DegreeAt(c) >= 4 {
				kept++
			}
		}
		return kept
	}
	want := 0
	for _, i := range order {
		want += filter(s.NeighborsAt(int32(i)))
	}
	b.Run("blocked", func(b *testing.B) {
		for b.Loop() {
			kept := 0
			for _, i := range order {
				kept += filter(s.NeighborsAt(int32(i)))
			}
			if kept != want {
				b.Fatalf("kept %d, want %d", kept, want)
			}
		}
	})
	b.Run("flat", func(b *testing.B) {
		for b.Loop() {
			kept := 0
			for _, i := range order {
				kept += filter(flat.neighborsAt(int32(i)))
			}
			if kept != want {
				b.Fatalf("kept %d, want %d", kept, want)
			}
		}
	})
}
