package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc checks allocation discipline in functions annotated
// //gvet:hotpath — the drain loops, intersection kernels, planner inner
// functions and emit, which run once per candidate occurrence. In those
// functions it flags map and slice allocation, new and &T{...}, interface
// boxing (a concrete value passed or converted where an interface is
// expected), closure allocation, and any use of fmt, all of which put
// per-occurrence garbage on the heap.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag map and slice allocation, new, &T{...}, interface boxing, closures and fmt use inside " +
		"//gvet:hotpath functions; per-occurrence allocation dominates mining throughput",
	Run: runHotAlloc,
}

// hotBuiltins are builtin calls the signature-based boxing check must not
// inspect (their Fun has no ordinary *types.Signature).
var hotBuiltins = map[string]bool{
	"append": true, "cap": true, "clear": true, "copy": true,
	"delete": true, "len": true, "make": true, "max": true,
	"min": true, "new": true, "panic": true, "print": true,
	"println": true, "recover": true,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		enclosingFuncs(f, func(fn *ast.FuncDecl) {
			if !isHotPath(fn) {
				return
			}
			checkHotFunc(pass, fn)
		})
	}
}

// checkHotFunc flags per-call allocation inside one hot-path function.
func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocates in hot path; hoist it out of %s or rewrite as a method on preallocated state", fn.Name.Name)
			return false // one finding per closure, not one per capture
		case *ast.CompositeLit:
			if isMapType(pass.Pkg.Info.TypeOf(n)) {
				pass.Reportf(n.Pos(), "map literal allocates in hot path; preallocate the map outside %s or use a slice keyed by index", fn.Name.Name)
			}
		case *ast.UnaryExpr:
			if _, lit := n.X.(*ast.CompositeLit); lit && n.Op == token.AND {
				pass.Reportf(n.Pos(), "&T{...} allocates in hot path; overwrite a value owned by preallocated state in %s", fn.Name.Name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, n)
		}
		return true
	})
}

// checkHotCall flags map and slice makes, new, fmt calls, interface
// conversions and interface-typed arguments for one call in a hot function.
func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	pkgPath, name := callee(pass, call)
	if pkgPath == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in hot path formats through reflection and allocates; use strconv or preformatted strings in %s", name, fn.Name.Name)
		return
	}
	if pkgPath == "" && hotBuiltins[name] {
		switch t := pass.Pkg.Info.TypeOf(call); {
		case name == "make" && isMapType(t):
			pass.Reportf(call.Pos(), "make(map) allocates in hot path; preallocate the map outside %s and reuse it", fn.Name.Name)
		case name == "make" && isSliceType(t):
			pass.Reportf(call.Pos(), "make([]T) allocates in hot path; reuse a buffer owned by preallocated state in %s", fn.Name.Name)
		case name == "new":
			pass.Reportf(call.Pos(), "new allocates in hot path; overwrite a value owned by preallocated state in %s", fn.Name.Name)
		}
		return
	}
	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && isConcrete(pass.Pkg.Info.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "conversion to interface %s boxes its operand in hot path; keep %s monomorphic", types.TypeString(tv.Type, nil), fn.Name.Name)
		}
		return
	}
	sig, ok := pass.Pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i)
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if isConcrete(pass.Pkg.Info.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "argument boxes a concrete value into interface parameter of %s in hot path; use a concrete-typed helper in %s", nameOrCall(name), fn.Name.Name)
		}
	}
}

// paramType returns the effective type of the i-th argument's parameter,
// unrolling the variadic tail.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if s, ok := last.(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// isMapType reports whether a type's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isSliceType reports whether a type's underlying type is a slice.
func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isConcrete reports whether a type is a known, non-interface, non-nil
// type — the kind whose assignment to an interface allocates.
func isConcrete(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !types.IsInterface(t)
}

// nameOrCall renders a callee name for a finding, tolerating calls through
// function values.
func nameOrCall(name string) string {
	if name == "" {
		return "a function value"
	}
	return name
}
