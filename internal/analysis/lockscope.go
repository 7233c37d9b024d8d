package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockScope checks the engine's lock discipline: the snapshot-cache lock
// (snapMu) and the engine write lock are tiny critical sections ordering
// bookkeeping only — CSR builds, enumeration, store I/O and network calls
// must all happen outside them, or every lock-free reader's refreeze stalls
// behind the blocked writer. It also checks that every Lock/RLock is paired
// with an Unlock/RUnlock (directly or via defer) on every return path.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc: "flag blocking operations (freeze/refreeze, enumeration, store I/O, network) " +
		"under snapMu or the engine write lock, and Lock calls without a paired Unlock on all paths",
	Run: runLockScope,
}

// blockingNames are the repository's expensive operations by method or
// function name: snapshot builds, enumeration entry points and incremental
// refreshes. Holding a guard lock across any of them serializes the whole
// serving path.
var blockingNames = map[string]bool{
	"Freeze":                   true,
	"FreezeSharded":            true,
	"EnumerateSnapshot":        true,
	"EnumerateSnapshotWorkers": true,
	"Mine":                     true,
	"Refresh":                  true,
	"buildSnapshot":            true,
	"rebuildSnapshot":          true,
	"buildShard":               true,
}

// blockingPkgFuncs lists package-scoped blocking calls: store segment I/O,
// file I/O and anything in net/http.
var blockingPkgFuncs = map[string]map[string]bool{
	"repro/internal/store": {"Open": true, "OpenWithBudget": true, "Write": true},
	"os":                   {"Open": true, "Create": true, "OpenFile": true, "ReadFile": true, "WriteFile": true},
}

func runLockScope(pass *Pass) {
	w := &flowWalker{pass: pass}
	w.hooks = flowHooks{
		classify: func(call *ast.CallExpr) flowEvent {
			return classifyMutexCall(pass, call)
		},
		onCall: func(call *ast.CallExpr, st *flowState) {
			guard, ok := st.hasGuard()
			if !ok {
				return
			}
			desc, blocking := isBlockingCall(pass, call)
			if !blocking {
				return
			}
			line := pass.Pkg.Fset.Position(guard.pos).Line
			pass.Reportf(call.Pos(), "blocking call %s while holding %s (locked at line %d); freeze/enumeration/IO must run outside the lock so readers never wait", desc, guard.what, line)
		},
		leak: func(r *heldRes, exitPos token.Pos, exitKind string) {
			line := pass.Pkg.Fset.Position(r.pos).Line
			pass.Reportf(exitPos, "%s locked at line %d is still held at %s; unlock on this path or defer the unlock", r.what, line, exitKind)
		},
	}
	w.walk()
}

// classifyMutexCall maps sync.Mutex/sync.RWMutex method calls to
// acquire/release events keyed by the receiver expression.
func classifyMutexCall(pass *Pass, call *ast.CallExpr) flowEvent {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return flowEvent{}
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return flowEvent{}
	}
	if !isSyncMutex(pass, sel.X) {
		return flowEvent{}
	}
	key := types.ExprString(sel.X)
	what := key
	switch name {
	case "Lock", "TryLock":
		return flowEvent{
			kind:  evAcquire,
			key:   key + "/w",
			what:  what,
			soft:  name == "TryLock",
			guard: isGuardExpr(pass, sel.X),
		}
	case "RLock", "TryRLock":
		return flowEvent{kind: evAcquire, key: key + "/r", what: what + " (read)", soft: name == "TryRLock"}
	case "Unlock":
		return flowEvent{kind: evRelease, key: key + "/w"}
	default: // RUnlock
		return flowEvent{kind: evRelease, key: key + "/r"}
	}
}

// isGuardExpr reports whether a locked expression is one of the two locks
// whose critical sections must stay free of blocking work: the graph's
// snapshot-cache lock (a field or variable named snapMu) or the engine
// write lock (the mu field of the Engine type).
func isGuardExpr(pass *Pass, x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if x.Sel.Name == "snapMu" {
			return true
		}
		return namedTypeName(pass, x.X) == "Engine"
	case *ast.Ident:
		return x.Name == "snapMu"
	}
	return false
}

// isBlockingCall reports whether a call reaches one of the blocking
// operations, with a description for the finding.
func isBlockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	pkgPath, name := callee(pass, call)
	if blockingNames[name] {
		return name, true
	}
	if pkgPath == "net/http" {
		return "net/http." + name, true
	}
	if set, ok := blockingPkgFuncs[pkgPath]; ok && set[name] {
		return pkgPath + "." + name, true
	}
	return "", false
}
