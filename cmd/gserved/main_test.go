package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	support "repro"
	"repro/internal/server"
)

// writeLG saves a graph built by b as a .lg file in dir and returns its path.
func writeLG(t *testing.T, dir, name string, b *support.GraphBuilder) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := support.SaveLGFile(path, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRejects: a command line gserved cannot serve returns before it
// listens. One the FlagSet rejects is errFlags, which main turns into exit
// status 2, with the reason on stderr; any other is an error of its own,
// exit status 1.
func TestRunRejects(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		flags bool
		say   string // on stderr for a rejected flag, in the error otherwise
	}{
		{"unknown flag", []string{"-no-such-flag"}, true, "flag provided but not defined: -no-such-flag"},
		{"no data source", nil, false, "one of -graph, -store or -persist is required"},
		{"missing graph", []string{"-graph", filepath.Join(t.TempDir(), "absent.lg")}, false, "absent.lg"},
		{"bad log level", []string{"-log-level", "loud"}, false, "unknown -log-level"},
		{"persist and store", []string{"-persist", t.TempDir(), "-store", t.TempDir()}, false, "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			err := run(tc.args, &stderr)
			switch {
			case err == nil:
				t.Fatalf("run %v served", tc.args)
			case errors.Is(err, errFlags) != tc.flags:
				t.Fatalf("run %v: err = %v, rejected by the flag set: %v", tc.args, err, tc.flags)
			case tc.flags && !strings.Contains(stderr.String(), tc.say):
				t.Errorf("run %v printed %q, want it to say %q", tc.args, stderr.String(), tc.say)
			case !tc.flags && !strings.Contains(err.Error(), tc.say):
				t.Errorf("run %v: err = %v, want it to say %q", tc.args, err, tc.say)
			}
		})
	}
}

// TestRunHelp: -h and -help print the usage on stderr and succeed, exit
// status 0, without opening or serving anything.
func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		var stderr bytes.Buffer
		if err := run([]string{arg}, &stderr); err != nil {
			t.Errorf("run %s: err = %v, want nil", arg, err)
		}
		if !strings.Contains(stderr.String(), "Usage of gserved") || !strings.Contains(stderr.String(), "-graph") {
			t.Errorf("run %s printed %q, want the usage", arg, stderr.String())
		}
	}
}

// evaluate opens what args name, as run does, and answers one /v1/evaluate of
// the labelled edge (1, 2) through httptest: the MNI and occurrence values.
func evaluate(t *testing.T, args ...string) (mni, occurrences float64) {
	t.Helper()
	c, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatalf("parsing %v: %v", args, err)
	}
	eng, srv, err := c.open(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatalf("opening %v: %v", args, err)
	}
	defer eng.Close()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
		strings.NewReader(`{"pattern":{"edge":[1,2]},"measures":["MNI","occurrences"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("%v: /v1/evaluate answered %s: %s", args, resp.Status, body)
	}
	var out server.EvaluateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Results["MNI"].Value, out.Results["occurrences"].Value
}

// TestSeededGraphAnswersEvaluate pins the two ways a .lg file becomes what
// gserved serves: -graph loads it, and -persist with -graph seeds an empty
// durable store from it — on first boot only, so a store that holds data
// ignores a different seed on the next start. The graph has the labelled
// edges 1–2, 1–3 and 4–3 (labels 1, 2, 2, 1): three occurrences of the edge
// (1, 2), two images per pattern node.
func TestSeededGraphAnswersEvaluate(t *testing.T) {
	dir := t.TempDir()
	seed := writeLG(t, dir, "seed.lg", support.NewGraphBuilder("seed").
		Vertex(1, 1).Vertex(2, 2).Vertex(3, 2).Vertex(4, 1).Edge(1, 2).Edge(1, 3).Edge(4, 3))
	other := writeLG(t, dir, "other.lg", support.NewGraphBuilder("other").
		Vertex(1, 1).Vertex(2, 2).Edge(1, 2))
	persist := filepath.Join(dir, "db")

	for _, args := range [][]string{
		{"-graph", seed},
		{"-persist", persist, "-graph", seed},
		{"-persist", persist, "-graph", other}, // already seeded: other is ignored
		{"-persist", persist},
	} {
		if mni, occ := evaluate(t, args...); mni != 2 || occ != 3 {
			t.Errorf("%v: MNI %v, occurrences %v; want 2 and 3", args, mni, occ)
		}
	}
	if mni, occ := evaluate(t, "-graph", other); mni != 1 || occ != 1 {
		t.Errorf("-graph %s: MNI %v, occurrences %v; want 1 and 1", other, mni, occ)
	}
}
