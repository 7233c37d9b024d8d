package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// testdataPkg is the directory of one of internal/analysis's seeded
// testdata packages, relative to this package.
func testdataPkg(name string) string {
	return "../../internal/analysis/testdata/src/" + name
}

// TestListNamesTheSuite: -list prints each pass's name on a line of its own
// (its doc indented below it), and the suite is exactly hotalloc and
// determinism, in run order.
func TestListNamesTheSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -list: %v (stderr %q)", err, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(line, "\t") {
			names = append(names, line)
		}
	}
	if want := []string{"hotalloc", "determinism"}; !reflect.DeepEqual(names, want) {
		t.Errorf("-list names %q, want %q", names, want)
	}
}

// TestExitStatus: a package that seeds violations prints one line per
// finding and returns errFindings, which main turns into exit status 1; a
// clean package prints nothing and returns nil, exit status 0; a rejected
// flag is errFlags, exit status 2.
func TestExitStatus(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{testdataPkg("hotalloc")}, &stdout, &stderr)
	if !errors.Is(err, errFindings) {
		t.Fatalf("seeded package: err = %v, want errFindings", err)
	}
	findings := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, f := range findings {
		if !strings.Contains(f, "hotalloc.go:") || !strings.Contains(f, "[hotalloc]") {
			t.Errorf("seeded package: unexpected line %q", f)
		}
	}
	if want := fmt.Sprintf("gvet: %d finding(s)", len(findings)); !strings.Contains(stderr.String(), want) {
		t.Errorf("seeded package: stderr %q, want %q", stderr.String(), want)
	}

	stdout.Reset()
	if err := run([]string{testdataPkg("obs")}, &stdout, &stderr); err != nil || stdout.Len() != 0 {
		t.Errorf("clean package: err = %v, stdout %q; want nil and nothing", err, stdout.String())
	}

	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); !errors.Is(err, errFlags) {
		t.Errorf("unknown flag: err = %v, want errFlags", err)
	}
}
