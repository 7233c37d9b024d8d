// Command doclint enforces the repository's godoc discipline: every exported
// package-level symbol (and every exported field or method reachable through
// an exported type) in the listed packages must carry a doc comment, and
// every package must have a package comment. CI runs it as the docs lint
// step over every package of the module, so the documentation pass of the
// architecture spine cannot regress and new packages are covered by default.
//
// Usage:
//
//	go run ./internal/doclint $(go list -f '{{.Dir}}' ./...)
//	go run ./internal/doclint internal/graph internal/core
//
// Each argument is a package directory relative to the module root (or an
// absolute path). Test files are skipped. The exit status is non-zero when
// any exported symbol is undocumented.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint <package-dir> [<package-dir> ...]")
		os.Exit(2)
	}
	var problems []string
	for _, dir := range os.Args[1:] {
		ps, err := lintDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented exported symbols\n", len(problems))
		os.Exit(1)
	}
}

// lintDir parses every non-test Go file of one package directory (through
// the shared analysis.ParseDir helper, so the file order — and with it the
// finding order — is deterministic) and returns a finding per undocumented
// exported symbol.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	files, err := analysis.ParseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, fmt.Sprintf(format, args...)))
	}
	hasPkgDoc := false
	for _, f := range files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		out = append(out, fmt.Sprintf("%s: package %s has no package comment", filepath.ToSlash(dir), files[0].Name.Name))
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			lintDecl(decl, report)
		}
	}
	return out, nil
}

// lintDecl reports undocumented exported symbols of one top-level
// declaration.
func lintDecl(decl ast.Decl, report func(token.Pos, string, ...any)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && receiverExported(d) && d.Doc == nil {
			report(d.Pos(), "exported %s %s has no doc comment", funcKind(d), d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				if d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
				}
			case *ast.ValueSpec:
				// Grouped const/var blocks may document the group; a doc
				// comment on the block, the spec or a trailing line comment
				// all count.
				for _, name := range s.Names {
					if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(name.Pos(), "exported %s %s has no doc comment", declKind(d.Tok.String()), name.Name)
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported (or
// the declaration is a plain function). Methods on unexported types are not
// part of the package's documented surface.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch rt := t.(type) {
		case *ast.StarExpr:
			t = rt.X
		case *ast.IndexExpr:
			t = rt.X
		case *ast.Ident:
			return rt.IsExported()
		default:
			return true
		}
	}
}

// funcKind names a FuncDecl for findings.
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// declKind names a const/var token for findings.
func declKind(tok string) string {
	if tok == "const" {
		return "constant"
	}
	return "variable"
}
