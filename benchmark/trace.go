package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, as written to the span file. Parent
// is the id of the enclosing span (0 for an op's root span); spans of one op
// share Op. Times are nanoseconds since the tracer was created.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans in memory; the file is written once, after the run.
// It is safe for concurrent use (serve-rw traces two connections).
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

// newTracer returns an empty tracer for one workload.
func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// span times fn as a span named name under parent (0 = root) in op, and
// returns its duration in milliseconds. fn receives the new span's id so
// that the calls it makes can be recorded as children. The layer is the
// name's prefix before the first dot.
func (t *tracer) span(parent, op int, name string, fn func(id int)) float64 {
	layer, _, _ := strings.Cut(name, ".")
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Workload: t.workload, Op: op, Parent: parent})
	t.mu.Unlock()
	start := time.Since(t.t0).Nanoseconds()
	fn(id)
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].StartNs, t.spans[id-1].EndNs = start, end
	t.mu.Unlock()
	return float64(end-start) / 1e6
}

// perOp returns, for the span name, each op's total span duration in
// milliseconds (ops in which the name never ran are left out) and the number
// of spans that contributed.
func (t *tracer) perOp(name string) (ms []float64, calls int) {
	byOp := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, seen := byOp[s.Op]; !seen {
			order = append(order, s.Op)
		}
		byOp[s.Op] += float64(s.EndNs-s.StartNs) / 1e6
		calls++
	}
	for _, op := range order {
		ms = append(ms, byOp[op])
	}
	return ms, calls
}

// medianMs is the median over ops of the per-op total duration of name.
func (t *tracer) medianMs(name string) float64 {
	ms, _ := t.perOp(name)
	return median(ms)
}

// totalMs is the duration of every span called name, summed over the run.
func (t *tracer) totalMs(name string) float64 {
	ms, _ := t.perOp(name)
	return sum(ms)
}

// meanCallUs is the mean duration of one span called name, in microseconds.
func (t *tracer) meanCallUs(name string) float64 {
	ms, calls := t.perOp(name)
	if calls == 0 {
		return 0
	}
	return sum(ms) / float64(calls) * 1e3
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
