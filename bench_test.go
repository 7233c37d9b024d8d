package support_test

import (
	"testing"

	support "repro"
)

// BenchmarkEvalMeasures runs the eval-measures workload's six evaluations
// (evalMeasuresCases, the work ledger's eval-* lines) through Engine.Do once
// per iteration, in process, so that a profile of the op needs no harness:
//
//	go test -run '^$' -bench EvalMeasures -benchtime 1000x -cpu 1 -cpuprofile cpu.prof -memprofile mem.prof .
func BenchmarkEvalMeasures(b *testing.B) {
	cases, engines := evalMeasuresCases(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			if _, err := engines[c.n].Do(&support.Request{Pattern: c.p, Measures: c.measures}); err != nil {
				b.Fatalf("%s: %v", c.name, err)
			}
		}
	}
}
