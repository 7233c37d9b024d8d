package analysis

import (
	"go/ast"
	"go/types"
)

// SnapshotMut checks the invariant underlying every lock-free read in the
// engine: once frozen, a Snapshot's (and its shards') CSR arrays are
// immutable. It flags writes, appends, sorts and copies targeting the
// frozen fields (ids, labels, rowPtr, colIdx, byLabel, shards) of types
// named Snapshot or shard, and the same operations on locals aliased from
// the sharing accessors (NeighborsAt, ShardIndexesWithLabel,
// IndexesWithLabel, Labels) whose doc contracts say
// "callers must not modify". The freeze/builder functions that construct
// shard arrays before publication are allowlisted by name.
var SnapshotMut = &Analyzer{
	Name: "snapshotmut",
	Doc: "flag mutation of frozen Snapshot/shard CSR arrays outside the " +
		"freeze/builder allowlist; every lock-free reader depends on their immutability",
	Run: runSnapshotMut,
}

// frozenOwnerTypes are the named types whose listed fields are immutable
// after freeze.
var frozenOwnerTypes = map[string]bool{
	"Snapshot": true,
	"shard":    true,
}

// frozenFields are the per-snapshot/per-shard CSR arrays fixed at freeze
// time.
var frozenFields = map[string]bool{
	"ids":     true,
	"labels":  true,
	"rowPtr":  true,
	"colIdx":  true,
	"byLabel": true,
	"shards":  true,
}

// sharingAccessors are the Snapshot methods returning shared slices that
// callers must not modify.
var sharingAccessors = map[string]bool{
	"NeighborsAt":           true,
	"ShardIndexesWithLabel": true,
	"IndexesWithLabel":      true,
	"Labels":                true,
}

// freezeAllowlist names the builder-side functions that legitimately fill
// shard arrays before the snapshot is published (graph's freeze pipeline
// and the store's decode path construct, then freeze — never mutate after
// publication).
var freezeAllowlist = map[string]bool{
	"buildShard":          true,
	"buildSnapshot":       true,
	"rebuildSnapshot":     true,
	"newShellSnapshot":    true,
	"seedLabelIndex":      true,
	"buildLabelIndex":     true,
	"withName":            true,
	"NewExternalSnapshot": true,
	"decodeShard":         true,
}

func runSnapshotMut(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		enclosingFuncs(f, func(fn *ast.FuncDecl) {
			if freezeAllowlist[fn.Name.Name] {
				return
			}
			checkSnapshotMutFunc(pass, fn)
		})
	}
}

// checkSnapshotMutFunc flags frozen-array mutation inside one function.
func checkSnapshotMutFunc(pass *Pass, fn *ast.FuncDecl) {
	tainted := taintedAliases(pass, fn)
	rooted := func(e ast.Expr) (string, bool) {
		return frozenRoot(pass, e, tainted)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, ok := lhs.(*ast.Ident); ok {
					continue // rebinding a local, not a write-through
				}
				if what, ok := rooted(lhs); ok {
					pass.Reportf(lhs.Pos(), "write to frozen snapshot array %s; snapshots are immutable after freeze (lock-free readers share these arrays)", what)
				}
			}
		case *ast.IncDecStmt:
			if what, ok := rooted(n.X); ok {
				pass.Reportf(n.Pos(), "write to frozen snapshot array %s; snapshots are immutable after freeze (lock-free readers share these arrays)", what)
			}
		case *ast.CallExpr:
			checkSnapshotMutCall(pass, n, rooted)
		}
		return true
	})
}

// checkSnapshotMutCall flags append/sort/copy calls whose destination is a
// frozen array or an alias of one.
func checkSnapshotMutCall(pass *Pass, call *ast.CallExpr, rooted func(ast.Expr) (string, bool)) {
	pkgPath, name := callee(pass, call)
	switch {
	case name == "append" && pkgPath == "" && len(call.Args) > 0:
		if what, ok := rooted(call.Args[0]); ok {
			pass.Reportf(call.Pos(), "append to frozen snapshot array %s may write its shared backing array; build a fresh slice instead", what)
		}
	case name == "copy" && pkgPath == "" && len(call.Args) > 0:
		if what, ok := rooted(call.Args[0]); ok {
			pass.Reportf(call.Pos(), "copy into frozen snapshot array %s; snapshots are immutable after freeze", what)
		}
	case (pkgPath == "sort" || pkgPath == "slices") && len(call.Args) > 0:
		if name == "Search" || name == "SearchInts" || name == "BinarySearch" || name == "BinarySearchFunc" || name == "Index" || name == "Contains" {
			return // read-only
		}
		if what, ok := rooted(call.Args[0]); ok {
			pass.Reportf(call.Pos(), "in-place %s.%s on frozen snapshot array %s; shard arrays are already sorted and shared with concurrent readers", pkgPath, name, what)
		}
	}
}

// frozenRoot strips indexing/slicing/deref and reports whether the base
// expression is a frozen field of a Snapshot/shard or a tainted alias of
// one, returning a human-readable name for the finding.
func frozenRoot(pass *Pass, e ast.Expr, tainted map[types.Object]string) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if frozenFields[x.Sel.Name] && frozenOwnerTypes[namedTypeName(pass, x.X)] {
				return namedTypeName(pass, x.X) + "." + x.Sel.Name, true
			}
			return "", false
		case *ast.Ident:
			obj := pass.Pkg.Info.Uses[x]
			if obj == nil {
				obj = pass.Pkg.Info.Defs[x]
			}
			if src, ok := tainted[obj]; ok {
				return src + " (via local " + x.Name + ")", true
			}
			return "", false
		case *ast.CallExpr:
			if src, ok := accessorCall(pass, x); ok {
				return src, true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// accessorCall reports whether a call is one of the Snapshot sharing
// accessors.
func accessorCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if !sharingAccessors[sel.Sel.Name] {
		return "", false
	}
	if namedTypeName(pass, sel.X) != "Snapshot" {
		return "", false
	}
	return "Snapshot." + sel.Sel.Name + "(...)", true
}

// taintedAliases computes, to a fixpoint, the local variables of a
// function that alias frozen arrays: assigned from a frozen field, from a
// sharing accessor, or from another tainted local (including subslices).
func taintedAliases(pass *Pass, fn *ast.FuncDecl) map[types.Object]string {
	tainted := make(map[types.Object]string)
	aliasSource := func(e ast.Expr) (string, bool) {
		return frozenRoot(pass, e, tainted)
	}
	for {
		changed := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					src, ok := aliasSource(n.Rhs[i])
					if !ok {
						continue
					}
					obj := pass.Pkg.Info.Defs[id]
					if obj == nil {
						obj = pass.Pkg.Info.Uses[id]
					}
					if obj != nil && tainted[obj] == "" {
						tainted[obj] = src
						changed = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != len(vs.Names) {
						continue
					}
					for i, name := range vs.Names {
						src, ok := aliasSource(vs.Values[i])
						if !ok {
							continue
						}
						obj := pass.Pkg.Info.Defs[name]
						if obj != nil && tainted[obj] == "" {
							tainted[obj] = src
							changed = true
						}
					}
				}
			}
			return true
		})
		if !changed {
			return tainted
		}
	}
}
