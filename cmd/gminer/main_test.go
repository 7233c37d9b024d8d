package main

import (
	"bytes"
	"errors"
	"os"
	"regexp"
	"testing"
)

// durations matches the wall-clock readings of a gminer report: the
// "elapsed:" of every result block and the two latency lines of an
// -incremental run.
var durations = regexp.MustCompile(`(?m)(elapsed|^delta refresh|^cold re-mine): +\S+`)

// mask replaces every wall-clock reading with MASKED.
func mask(report []byte) []byte { return durations.ReplaceAll(report, []byte("${1}: MASKED")) }

// TestRunGolden pins gminer's stdout on a fixed generated graph
// (testdata/ba120.lg: ggen -model ba -n 120 -m 2 -labels 3 -seed 7). The
// goldens were written by the gminer of the commit before patterns became
// compact, so pattern order, node numbering, supports, raw counts and search
// statistics are held across that rewrite; only the timings are masked. The
// report does not depend on the parallelism flags.
func TestRunGolden(t *testing.T) {
	mining := []string{"-graph", "testdata/ba120.lg", "-minsup", "4", "-maxsize", "4"}
	cases := []struct {
		name   string
		args   []string
		golden string
	}{
		{"cold", mining, "testdata/cold.golden"},
		{"cold-workers-parallel", append(mining[:len(mining):len(mining)], "-workers", "4", "-parallel", "2"), "testdata/cold.golden"},
		{"incremental", append(mining[:len(mining):len(mining)], "-incremental", "-inserts", "12", "-removes", "6", "-insert-seed", "3"), "testdata/incremental.golden"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatalf("run %v: %v", tc.args, err)
			}
			if got := mask(out.Bytes()); !bytes.Equal(got, want) {
				t.Fatalf("run %v printed:\n%s\nwant:\n%s", tc.args, got, want)
			}
		})
	}
}

// TestRunErrors: a command line that cannot be served is an error and prints
// no report.
func TestRunErrors(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		flags bool
	}{
		{"no data source", nil, false},
		{"unknown measure", []string{"-graph", "testdata/ba120.lg", "-measure", "nope"}, false},
		{"incremental on a store", []string{"-store", "testdata", "-incremental"}, false},
		{"retired flag", []string{"-graph", "testdata/ba120.lg", "-materialize"}, true},
		{"streaming is not a mining flag", []string{"-graph", "testdata/ba120.lg", "-streaming"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil || errors.Is(err, errFlags) != tc.flags {
				t.Errorf("run %v: err = %v", tc.args, err)
			}
			if out.Len() != 0 {
				t.Errorf("run %v still printed a report:\n%s", tc.args, out.String())
			}
		})
	}
}
