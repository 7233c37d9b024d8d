// Package analysis is the repository's invariant-checking static-analysis
// framework: a small, stdlib-only (go/ast + go/types) mirror of the
// golang.org/x/tools go/analysis shape, carrying the two gvet passes that
// machine-check conventions the engine leans on and that have each caught a
// real violation: hot-path allocation hygiene (hotalloc) and wire
// determinism (determinism). Snapshot immutability is checked at run time
// instead, by the race-enabled snapshot tests.
//
// The cmd/gvet multichecker drives the suite over the module in CI;
// internal/doclint shares the package-walking helpers. Findings are
// suppressed per line with a mandatory-reason directive:
//
//	//gvet:ignore <pass>[,<pass>...] <reason>
//
// placed on the offending line or the line directly above it. A directive
// without a reason (or naming an unknown pass) is itself a finding, so
// suppressions stay auditable. Functions are opted into the hotalloc pass
// with a //gvet:hotpath line in their doc comment.
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// Analyzer is one gvet pass: a named check that inspects a loaded package
// and reports diagnostics through its Pass.
type Analyzer struct {
	// Name is the pass name used in findings and //gvet:ignore directives.
	Name string
	// Doc is the one-paragraph description of the invariant the pass checks.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer's run over one loaded package.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Pkg is the loaded, type-checked package under inspection.
	Pkg *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Pass:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding of one pass.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Pass names the analyzer that produced it.
	Pass string
	// Message describes the violated invariant at this site.
	Message string
}

// String renders the finding in the fixed "file:line: [pass] message" form
// the tests and CI grep for.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Pass, d.Message)
}

// Analyzers returns the full gvet suite in its stable run order.
func Analyzers() []*Analyzer {
	return []*Analyzer{HotAlloc, Determinism}
}

// Check runs the given analyzers over one loaded package, applies the
// package's //gvet:ignore directives, and returns the surviving findings
// sorted by position. Malformed directives (missing reason, unknown pass)
// are appended as findings of the pseudo-pass "gvet" and cannot be
// suppressed.
func Check(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	directives, derrs := scanIgnoreDirectives(pkg, known)
	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(d, directives) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, derrs...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pass < b.Pass
	})
	return kept
}

// suppressed reports whether an ignore directive on the finding's line (or
// the line directly above it) names the finding's pass.
func suppressed(d Diagnostic, directives []ignoreDirective) bool {
	for _, ig := range directives {
		if ig.file != d.Pos.Filename {
			continue
		}
		if ig.line != d.Pos.Line && ig.line != d.Pos.Line-1 {
			continue
		}
		for _, p := range ig.passes {
			if p == d.Pass {
				return true
			}
		}
	}
	return false
}
