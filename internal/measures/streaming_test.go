package measures_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/measures"
)

// TestMNIOnStreamingContext checks that MNI computed from the streamed
// domain tables equals MNI computed from the materialized occurrence list on
// every paper figure.
func TestMNIOnStreamingContext(t *testing.T) {
	for _, fig := range dataset.AllFigures() {
		mat := core.MustNewContext(fig.Graph, fig.Pattern, core.Options{})
		st := core.MustNewContext(fig.Graph, fig.Pattern, core.Options{Streaming: true})
		rm, err := (measures.MNI{}).Compute(mat)
		if err != nil {
			t.Fatalf("%s: materialized MNI: %v", fig.Name, err)
		}
		rs, err := (measures.MNI{}).Compute(st)
		if err != nil {
			t.Fatalf("%s: streaming MNI: %v", fig.Name, err)
		}
		if rm.Value != rs.Value {
			t.Errorf("%s: streaming MNI = %g, materialized = %g", fig.Name, rs.Value, rm.Value)
		}
	}
}

// TestStreamingRejectsMaterializedMeasures checks that measures needing the
// occurrence list or a hypergraph fail loudly on a streaming context, and
// that the streaming-capable ones succeed.
func TestStreamingRejectsMaterializedMeasures(t *testing.T) {
	fig := dataset.Figure2()
	st := core.MustNewContext(fig.Graph, fig.Pattern, core.Options{Streaming: true})

	for _, m := range []measures.Measure{
		measures.MI{}, measures.MVC{}, measures.MVC{Approximate: true},
		measures.MIS{}, measures.MIES{}, measures.MIES{Approximate: true},
		measures.NuMVC{}, measures.NuMIES{}, measures.MCP{}, measures.MNIK{K: 2},
	} {
		if _, err := m.Compute(st); err == nil {
			t.Errorf("%s succeeded on a streaming context, want error", m.Name())
		} else if !strings.Contains(err.Error(), "materialized") {
			t.Errorf("%s: unexpected error %v", m.Name(), err)
		}
	}
	for _, m := range measures.StreamingSet() {
		if _, err := m.Compute(st); err != nil {
			t.Errorf("%s failed on a streaming context: %v", m.Name(), err)
		}
	}

	// The default evaluation on a streaming context must shrink to the
	// streaming set instead of erroring.
	ev, err := measures.Evaluate(st)
	if err != nil {
		t.Fatalf("Evaluate on streaming context: %v", err)
	}
	if _, err := ev.Value(measures.NameMNI); err != nil {
		t.Errorf("streaming evaluation lacks MNI: %v", err)
	}
	if _, ok := ev.Results[measures.NameMVC]; ok {
		t.Error("streaming evaluation unexpectedly contains MVC")
	}
}
