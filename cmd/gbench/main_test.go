package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestListPrintsEveryExperiment: -list prints one line per registered
// experiment, its ID first, in ID order.
func TestListPrintsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -list: %v (stderr %q)", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	ids := bench.NewRegistry().IDs()
	if len(lines) != len(ids) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(ids), stdout.String())
	}
	for i, id := range ids {
		if got := strings.Fields(lines[i])[0]; got != id {
			t.Errorf("line %d lists %q, want %q", i, got, id)
		}
	}
}

// TestRunRejects: an unknown experiment is an error (exit status 1) naming
// it, and an unknown flag is errFlags (exit status 2) — -trace among them,
// since gbench times nothing.
func TestRunRejects(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-exp", "nosuch"}, &stdout, &stderr)
	if err == nil || errors.Is(err, errFlags) || !strings.Contains(err.Error(), `unknown experiment "nosuch"`) {
		t.Errorf("-exp nosuch: err = %v", err)
	}
	if err := run([]string{"-trace"}, &stdout, &stderr); !errors.Is(err, errFlags) {
		t.Errorf("-trace: err = %v, want errFlags", err)
	}
}
