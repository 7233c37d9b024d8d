// Package ignorepkg seeds both suppressed violations and malformed
// //gvet:ignore directives for the directive-handling tests.
package ignorepkg

//gvet:hotpath
func suppressedSameLine(n int) []int {
	return make([]int, n) //gvet:ignore hotalloc testdata: exercising the same-line suppression path
}

//gvet:hotpath
func suppressedAbove(n int) []int {
	//gvet:ignore hotalloc testdata: a directive on the line above also applies
	return make([]int, n)
}

//gvet:hotpath
func missingReason(n int) []int {
	return make([]int, n) //gvet:ignore hotalloc
}

//gvet:hotpath
func unknownPass(n int) []int {
	return make([]int, n) //gvet:ignore hotallocc typo in the pass name
}
