package miner

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
)

// TestIncrementalCloseReleasesFeeds is the session-eviction resource
// accounting check: an incremental session owns exactly one mutation feed
// however many candidates it tracks — the tracked delta contexts are handed
// the session's batches and subscribe to nothing, so a graph mutation is
// appended once per session — and closing the session must return the
// graph's subscription count exactly to its baseline: a server evicting
// thousands of idle sessions must not leak feeds (each undrained feed
// buffers every future mutation forever).
func TestIncrementalCloseReleasesFeeds(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, gen.UniformLabels{K: 2}, 7)
	base := g.OpenFeeds()

	const sessions = 8
	incs := make([]*Incremental, 0, sessions)
	for i := 0; i < sessions; i++ {
		inc, err := NewIncremental(g, Config{MinSupport: 3, MaxPatternSize: 3})
		if err != nil {
			t.Fatalf("NewIncremental: %v", err)
		}
		incs = append(incs, inc)
	}
	open := g.OpenFeeds()
	if open <= base {
		t.Fatalf("expected open sessions to hold mutation feeds, got %d (baseline %d)", open, base)
	}
	if incs[0].TrackedPatterns() < 2 {
		t.Fatalf("sessions track %d candidates; the check needs several", incs[0].TrackedPatterns())
	}
	if open-base != sessions {
		t.Fatalf("%d sessions tracking %d candidates each hold %d feeds, want one per session", sessions, incs[0].TrackedPatterns(), open-base)
	}

	for _, inc := range incs {
		inc.Close()
		inc.Close() // idempotent: double close must not double-release
	}
	if got := g.OpenFeeds(); got != base {
		t.Fatalf("feeds leaked: %d open after closing every session, baseline %d", got, base)
	}

	// A closed session keeps its last result readable but refuses Refresh.
	if incs[0].Result() == nil {
		t.Fatalf("closed session lost its result")
	}
	if _, err := incs[0].Refresh(); err == nil {
		t.Fatalf("Refresh on a closed session should fail")
	}
}

// TestForEach pins the worker pool behind evaluateLevel and refreshTracked:
// every index runs exactly once at every worker count, and after a failure
// the error comes back, no index runs twice and — sequentially — nothing
// past the failing index runs at all.
func TestForEach(t *testing.T) {
	const n = 200
	boom := errors.New("boom")
	for _, workers := range []int{0, 1, 2, 4, n + 5} {
		var ran [n]atomic.Int32
		if err := forEach(n, workers, func(i int) error { ran[i].Add(1); return nil }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want once", workers, i, got)
			}
		}

		var failing [n]atomic.Int32
		err := forEach(n, workers, func(i int) error {
			failing[i].Add(1)
			if i == 10 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got error %v, want boom", workers, err)
		}
		for i := range failing {
			got := failing[i].Load()
			if got > 1 || (workers < 2 && i > 10 && got != 0) {
				t.Fatalf("workers=%d: index %d ran %d times after the failure at 10", workers, i, got)
			}
		}
	}
	if err := forEach(0, 4, func(int) error { return boom }); err != nil {
		t.Fatalf("empty range returned %v", err)
	}
}
