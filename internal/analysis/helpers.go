package analysis

import (
	"go/ast"
	"go/types"
)

// callee resolves the called function or method of a call expression to
// its defining package path and name, best-effort: ("", "") when the call
// is through a function value, a builtin, or otherwise unresolvable.
func callee(pass *Pass, call *ast.CallExpr) (pkgPath, name string) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.Pkg.Info.Uses[fun.Sel]
		name = fun.Sel.Name
	case *ast.Ident:
		obj = pass.Pkg.Info.Uses[fun]
		name = fun.Name
	default:
		return "", ""
	}
	if f, ok := obj.(*types.Func); ok {
		if f.Pkg() != nil {
			pkgPath = f.Pkg().Path()
		}
		return pkgPath, name
	}
	if obj != nil {
		// A variable of function type, a type conversion, a builtin:
		// keep the syntactic name but no package.
		return "", name
	}
	return "", name
}

// enclosingFuncs yields every function body of a file together with its
// declared name ("" for function literals walked through declarations).
func enclosingFuncs(f *ast.File, fn func(decl *ast.FuncDecl)) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd)
		}
	}
}
