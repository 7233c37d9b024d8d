package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The testdata packages under testdata/src/<name> seed known violations;
// expectations are trailing `// want "substring"` comments asserting a
// finding on that exact file:line whose message contains the substring.
// The go tool never builds testdata, so the seeded violations do not
// trip gvet's own CI run.

var (
	loaderOnce   sync.Once
	sharedLoader *Loader
)

// loadTestPkg type-checks one testdata package through the shared loader
// (the source importer's cache makes the stdlib cheap after the first use).
func loadTestPkg(t *testing.T, name string) *Package {
	t.Helper()
	loaderOnce.Do(func() { sharedLoader = NewLoader() })
	pkg, err := sharedLoader.Load(filepath.Join("testdata", "src", name), name)
	if err != nil {
		t.Fatalf("loading testdata package %s: %v", name, err)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`"([^"]*)"`)

// collectWants gathers the `// want` expectations of a package, keyed by
// "file:line" of the comment.
func collectWants(pkg *Package) map[string][]string {
	wants := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "// want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

// runWantTest checks one analyzer against one testdata package: every
// finding must match a want on its exact file:line, and every want must be
// consumed by exactly one finding.
func runWantTest(t *testing.T, pkgName string, a *Analyzer) {
	t.Helper()
	pkg := loadTestPkg(t, pkgName)
	diags := Check(pkg, []*Analyzer{a})
	if len(diags) == 0 {
		t.Fatalf("%s found nothing in testdata/src/%s; the seeded violations must fail", a.Name, pkgName)
	}
	wants := collectWants(pkg)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for i, w := range wants[key] {
			if strings.Contains(d.Message, w) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key, rest := range wants {
		for _, w := range rest {
			t.Errorf("missing finding at %s: want message containing %q", key, w)
		}
	}
}

func TestHotAlloc(t *testing.T)              { runWantTest(t, "hotalloc", HotAlloc) }
func TestDeterminismMapOrder(t *testing.T)   { runWantTest(t, "determin", Determinism) }
func TestDeterminismServerPkg(t *testing.T)  { runWantTest(t, "server", Determinism) }
func TestDeterminismSupportPkg(t *testing.T) { runWantTest(t, "support", Determinism) }

// TestDeterminismObsExempt pins the clock exemption of package obs: it is
// the module's sanctioned home for wall-clock reads (its timers feed
// /metrics, logs and traces — never response bodies), so the determinism
// pass must stay silent on time.Now/Since/Until there.
func TestDeterminismObsExempt(t *testing.T) {
	pkg := loadTestPkg(t, "obs")
	diags := Check(pkg, []*Analyzer{Determinism})
	for _, d := range diags {
		t.Errorf("determinism flagged the sanctioned obs package: %s", d)
	}
}

// TestIgnoreDirectives pins the directive semantics end to end with exact
// rendered findings: a reasoned directive suppresses its line (and the
// line below), a directive without a reason is itself a finding AND
// suppresses nothing, as is one naming an unknown pass.
func TestIgnoreDirectives(t *testing.T) {
	pkg := loadTestPkg(t, "ignorepkg")
	file := filepath.ToSlash(filepath.Join("testdata", "src", "ignorepkg", "ignorepkg.go"))
	want := []string{
		file + ":18: [gvet] //gvet:ignore hotalloc has no reason; the reason is mandatory",
		file + ":18: [hotalloc] make([]T) allocates in hot path; reuse a buffer owned by preallocated state in missingReason",
		file + `:23: [gvet] //gvet:ignore names unknown pass "hotallocc"`,
		file + ":23: [hotalloc] make([]T) allocates in hot path; reuse a buffer owned by preallocated state in unknownPass",
	}
	var got []string
	for _, d := range Check(pkg, Analyzers()) {
		got = append(got, d.String())
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
