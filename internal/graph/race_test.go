//go:build race

package graph_test

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = true
