// Package errflow enforces error propagation on the calls whose
// failures threaten durability: journal appends (Writer.Append*),
// syncs (Writer.Sync, os.File.Sync — the fsync path), state applies
// (State.Apply, the one code that changes a campaign's state) and
// ledger applies (Ledger.ApplySettle / ApplyClaim). The error each
// returns must reach a return statement, be stored, or be read on
// every path out of the enclosing function; assignment to the blank
// identifier, discarding the results outright, overwriting the
// variable before it is read, and branch-local loss (a path to return
// that never looks at the value) are findings.
//
// The check is CFG-based (vet.CheckErrFlow): each function body — and
// each function literal, on its own graph — is walked forward from
// the producing call, so shadowed redeclarations and loop back-edges
// are handled by object identity, not by name.
package errflow

import (
	"go/ast"
	"go/types"
	"strings"

	"incentivetree/internal/vet"
)

// New returns a fresh analyzer instance.
func New() *vet.Analyzer {
	return &vet.Analyzer{
		Name: "errflow",
		Doc:  "errors from journal appends, syncs, and state and ledger applies must reach a return, a store, or a read on every path",
		Run:  run,
	}
}

func run(pass *vet.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkBody(pass, fd.Body)
			return false
		})
	}
}

// checkBody analyzes the calls lexically inside body (excluding nested
// function literals, which get their own CFG and recursive check).
func checkBody(pass *vet.Pass, body *ast.BlockStmt) {
	var cfg *vet.CFG // built lazily: most bodies have no tracked calls
	var nested []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			nested = append(nested, lit)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, desc := trackedCall(pass.Info, call)
		if fn == nil {
			return true
		}
		errIndex, ok := errorResult(fn)
		if !ok {
			return true
		}
		if cfg == nil {
			cfg = vet.NewCFG(body)
		}
		flow := vet.CheckErrFlow(pass.Info, cfg, call, errIndex)
		switch flow.Verdict {
		case vet.ErrBlank:
			pass.Report(call.Pos(), "error from %s assigned to _: durability failures must propagate to a return or rollback", desc)
		case vet.ErrDiscarded:
			pass.Report(call.Pos(), "return values of %s discarded: its error must propagate to a return or rollback", desc)
		case vet.ErrOverwritten:
			pass.Report(flow.Site.Pos(), "error from %s overwritten before it is read", desc)
		case vet.ErrLost:
			pass.Report(call.Pos(), "error from %s is lost on a path out of the function: every branch must read it", desc)
		}
		return true
	})
	for _, lit := range nested {
		checkBody(pass, lit.Body)
	}
}

// trackedCall reports whether call is one of the durability-critical
// producers, returning the callee and a human description. Matching
// is by package, receiver, and method name (not import path), so test
// stubs behave like the real packages.
func trackedCall(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	fn := vet.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, ""
	}
	recv := vet.NamedReceiver(fn)
	if recv == nil {
		return nil, ""
	}
	pkg, typ, name := fn.Pkg().Name(), recv.Obj().Name(), fn.Name()
	switch {
	case pkg == "journal" && typ == "Writer" && (strings.HasPrefix(name, "Append") || name == "Sync"):
		return fn, "journal." + name
	case pkg == "journal" && typ == "State" && name == "Apply":
		return fn, "journal.State.Apply"
	case pkg == "journal" && typ == "Ledger" && strings.HasPrefix(name, "Apply"):
		return fn, "journal.Ledger." + name
	case pkg == "os" && typ == "File" && name == "Sync":
		return fn, "File.Sync"
	}
	return nil, ""
}

// errorResult returns the index of fn's error result.
func errorResult(fn *types.Func) (int, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if vet.IsErrorType(res.At(i).Type()) {
			return i, true
		}
	}
	return 0, false
}
