package graph

// FlatRows returns each shard's row pointers and its columns copied into one
// array, the layout a shard had before its columns were cut into blocks.
func FlatRows(s *Snapshot) (rowPtr, col [][]int32) {
	for k := range s.shards {
		sh := &s.shards[k]
		rowPtr = append(rowPtr, sh.rowPtr)
		col = append(col, sh.appendCols(nil))
	}
	return rowPtr, col
}
