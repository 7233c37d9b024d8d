package obs

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Trace is one request's span tree: a root span plus the nested child spans
// the layers underneath open while serving it. Traces are opt-in — a nil
// *Trace is fully usable (every method is a no-op), so instrumented code
// starts spans unconditionally and pays nothing when tracing is off.
//
// A trace serializes its own mutations, so spans may be started and ended
// from the goroutine tree a request fans out into; rendering a trace that
// still has open spans shows them without a duration.
type Trace struct {
	mu   sync.Mutex
	root *Span
}

// Span is one timed region of a trace, with string attributes and child
// spans. Spans are created by Trace.Root().Start (or Start on another span)
// and closed by End.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	elapsed  time.Duration
	done     bool
	attrs    []spanAttr
	children []*Span
}

// spanAttr is one key=value annotation on a span.
type spanAttr struct{ key, val string }

// NewTrace starts a trace whose root span has the given name.
func NewTrace(name string) *Trace {
	t := &Trace{}
	t.root = &Span{tr: t, name: name, start: time.Now()}
	return t
}

// Root returns the root span; nil on a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span (children left open stay open). Nil-safe.
func (t *Trace) Finish() { t.Root().End() }

// Start opens a child span under s and returns it. Nil-safe: a nil span
// returns a nil child, so an untraced request costs one nil check per span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	child := &Span{tr: s.tr, name: name, start: time.Now()}
	s.children = append(s.children, child)
	return child
}

// Record adds a finished child span under s whose duration was measured
// elsewhere — a phase the callee timed itself, possibly summed over several
// interleaved stretches — and returns it. Nil-safe.
func (s *Span) Record(name string, elapsed time.Duration) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	child := &Span{tr: s.tr, name: name, start: s.start, elapsed: elapsed, done: true}
	s.children = append(s.children, child)
	return child
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if !s.done {
		s.done = true
		s.elapsed = time.Since(s.start)
	}
}

// SetAttr annotates the span with a key=value pair. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.attrs = append(s.attrs, spanAttr{key, value})
}

// SetAttrInt annotates the span with an integer value. Nil-safe.
func (s *Span) SetAttrInt(key string, value int64) { s.SetAttr(key, strconv.FormatInt(value, 10)) }

// String renders the span tree, one span per line, children indented under
// their parent:
//
//	evaluate 1.23ms epoch=4
//	  enumerate 1.1ms
//	  aggregate 88µs
//
// Open spans render "..." in place of a duration. An empty string is
// returned on a nil trace.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	t.root.render(&b, 0)
	return b.String()
}

// render writes the span and its subtree at the given depth. Caller holds
// the trace lock.
func (s *Span) render(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(s.name)
	b.WriteByte(' ')
	if s.done {
		b.WriteString(s.elapsed.String())
	} else {
		b.WriteString("...")
	}
	for _, a := range s.attrs {
		b.WriteByte(' ')
		b.WriteString(a.key)
		b.WriteByte('=')
		b.WriteString(a.val)
	}
	b.WriteByte('\n')
	for _, c := range s.children {
		c.render(b, depth+1)
	}
}

// traceKey is the context key traces travel under.
type traceKey struct{}

// ContextWithTrace attaches a trace to a context; the engine's DoContext
// picks it up and opens per-phase child spans under its root.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace attached to the context, or nil — which,
// by the nil-safety of every span method, turns all downstream span calls
// into no-ops.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
