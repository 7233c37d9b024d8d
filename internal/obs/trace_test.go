package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestTraceTree checks span nesting, attributes and rendering shape (names
// and indentation; durations are wall-clock and only checked for presence).
func TestTraceTree(t *testing.T) {
	tr := NewTrace("evaluate")
	tr.Root().SetAttrInt("epoch", 4)
	enum := tr.Root().Start("enumerate")
	enum.End()
	agg := tr.Root().Start("aggregate")
	agg.SetAttr("measures", "MNI")
	agg.End()
	open := tr.Root().Start("never-ended")
	_ = open
	tr.Finish()

	out := tr.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("span tree has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "evaluate ") || !strings.Contains(lines[0], "epoch=4") {
		t.Errorf("root line wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  enumerate ") {
		t.Errorf("child not indented under root: %q", lines[1])
	}
	if !strings.Contains(lines[2], "measures=MNI") {
		t.Errorf("attribute missing: %q", lines[2])
	}
	if !strings.Contains(lines[3], "never-ended ...") {
		t.Errorf("open span must render '...': %q", lines[3])
	}
}

// TestNilTraceIsFree asserts the nil-safety contract instrumented code
// relies on: every method of a nil trace/span is a no-op.
func TestNilTraceIsFree(t *testing.T) {
	var tr *Trace
	sp := tr.Root().Start("child")
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.Start("grandchild").End()
	sp.End()
	tr.Finish()
	if got := tr.String(); got != "" {
		t.Errorf("nil trace renders %q, want empty", got)
	}
}

// TestTraceContext round-trips a trace through a context.
func TestTraceContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("FromContext on a bare context must be nil")
	}
	tr := NewTrace("root")
	ctx := ContextWithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace did not round-trip through the context")
	}
}

// TestConcurrentSpans starts and ends spans from many goroutines under
// -race; the trace must serialize its own mutations.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTrace("root")
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				sp := tr.Root().Start("worker")
				sp.SetAttrInt("i", int64(i))
				sp.End()
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	tr.Finish()
	if n := strings.Count(tr.String(), "\n"); n != 1+8*200 {
		t.Errorf("span tree has %d lines, want %d", n, 1+8*200)
	}
}

// TestSpanRecord: a child recorded with a duration measured elsewhere
// renders finished, with that duration, and can carry attributes.
func TestSpanRecord(t *testing.T) {
	tr := NewTrace("mine")
	tr.Root().Record("generate", 1500*time.Microsecond).SetAttrInt("codes", 7)
	tr.Finish()
	lines := strings.Split(strings.TrimRight(tr.String(), "\n"), "\n")
	if len(lines) != 2 || lines[1] != "  generate 1.5ms codes=7" {
		t.Errorf("span tree:\n%s", tr.String())
	}
	var nilSpan *Span
	if nilSpan.Record("generate", time.Second) != nil {
		t.Error("Record on a nil span must return nil")
	}
}
