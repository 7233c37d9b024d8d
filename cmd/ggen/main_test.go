package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestWritesLoadableGraph: -out writes a .lg file that the dataset loader
// reads back with the vertex count asked for, and the summary goes to
// stderr, leaving stdout empty.
func TestWritesLoadableGraph(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ba.lg")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-model", "ba", "-n", "50", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	g, err := dataset.LoadLGFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 50 {
		t.Errorf("loaded %d vertices, want 50", g.NumVertices())
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "wrote "+out) {
		t.Errorf("stdout %q, stderr %q; want nothing and the summary", stdout.String(), stderr.String())
	}
}

// TestRunRejects: an unknown flag is errFlags (exit status 2) and an unknown
// model is an error of its own (exit status 1).
func TestRunRejects(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); !errors.Is(err, errFlags) {
		t.Errorf("unknown flag: err = %v, want errFlags", err)
	}
	err := run([]string{"-model", "nosuch"}, &stdout, &stderr)
	if err == nil || errors.Is(err, errFlags) || !strings.Contains(err.Error(), `unknown model "nosuch"`) {
		t.Errorf("unknown model: err = %v", err)
	}
}
