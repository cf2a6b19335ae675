// Package journalfirst guards the durability contract of the write
// path: in the serving packages (server, store, replica,
// audit), in-memory
// guarded state and the journal must never diverge. A function that
// mutates receiver-reachable state BEFORE calling journal.Append /
// AppendBatch must roll the mutations back on the append-error path
// — otherwise the state survives in memory but vanishes on restart,
// the exact bug class PR 4 fixed in joinLocked.
//
// Concretely, for every function that calls Append/AppendBatch on a
// journal.Writer, if a state write on the receiver (field assignment,
// delete on a receiver map, or a call to a mutating method rooted at
// the receiver — Add*, Set*, *Locked, ...) precedes the append in the
// same body, the analyzer requires that:
//
//   - the append's error result is assigned (not discarded), and
//   - the `if err != nil` branch that follows invokes a compensating
//     call whose name contains rollback/undo/reset/restore.
//
// Functions that journal first and mutate only after the append
// succeeds satisfy the invariant trivially and are not flagged.
package journalfirst

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"incentivetree/internal/vet"
)

// New returns a fresh analyzer instance.
func New() *vet.Analyzer {
	return &vet.Analyzer{
		Name: "journalfirst",
		Doc:  "state mutated before a journal append must be rolled back on the append-error path",
		Run:  run,
	}
}

// scopedPackages are the package names the invariant applies to (the
// serving write path).
var scopedPackages = map[string]bool{"server": true, "store": true, "replica": true, "audit": true}

// mutatorName matches method names that (by this repo's conventions)
// mutate state.
var mutatorName = regexp.MustCompile(`^(Add|Set|Join|Apply|Delete|Remove|Insert|Push|Put|Reset|Truncate|Restore|Adopt|Inc|Bump)|Locked$`)

// rollbackName matches compensating-call names accepted on the
// append-error path.
var rollbackName = regexp.MustCompile(`(?i)rollback|undo|reset|restore|compensat`)

func run(pass *vet.Pass) {
	if !scopedPackages[pass.Pkg.Name()] {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
}

func checkFunc(pass *vet.Pass, fn *ast.FuncDecl) {
	recv := vet.DeclReceiver(pass.Info, fn)
	if recv == nil {
		return // free functions hold no guarded state of their own
	}
	appends := journalAppends(pass.Info, fn.Body)
	if len(appends) == 0 {
		return
	}
	for _, app := range appends {
		write := firstWriteBefore(pass.Info, fn.Body, recv, app.call.Pos())
		if write == nil {
			continue // journal-first ordering: nothing to roll back
		}
		if !app.errHandled {
			pass.Report(app.call.Pos(),
				"journal %s error is not checked, but guarded state was already mutated at line %d; a failed append leaves memory ahead of the journal",
				app.name, pass.Fset.Position(write.Pos()).Line)
			continue
		}
		if !app.rollback {
			pass.Report(app.call.Pos(),
				"guarded state mutated at line %d before journal %s, but the append-error path has no rollback/undo/restore call; memory would survive what the journal lost",
				pass.Fset.Position(write.Pos()).Line, app.name)
		}
	}
}

// appendSite is one journal.Append/AppendBatch call with its error
// handling summarized.
type appendSite struct {
	call       *ast.CallExpr
	name       string
	errHandled bool
	rollback   bool
}

// journalAppends finds Append/AppendBatch calls on journal.Writer
// values and inspects the surrounding statements for error handling.
func journalAppends(info *types.Info, body *ast.BlockStmt) []appendSite {
	var sites []appendSite
	// Walk statement lists so each call can see its following
	// statement (the `if err != nil` idiom).
	var walkStmts func(list []ast.Stmt)
	walkStmts = func(list []ast.Stmt) {
		for i, stmt := range list {
			ast.Inspect(stmt, func(n ast.Node) bool {
				if blk, ok := n.(*ast.BlockStmt); ok && blk != nil {
					walkStmts(blk.List)
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || !isJournalAppend(info, call) {
					return true
				}
				site := appendSite{call: call, name: vet.CalleeName(call)}
				site.errHandled, site.rollback = errHandling(info, stmt, i, list, call)
				sites = append(sites, site)
				return true
			})
		}
	}
	walkStmts(body.List)
	return sites
}

// errHandling determines whether the append call's error is bound and
// checked, and whether the error branch compensates.
func errHandling(info *types.Info, stmt ast.Stmt, idx int, list []ast.Stmt, call *ast.CallExpr) (handled, rollback bool) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		errIdent := assignedError(info, s, call)
		if errIdent == nil {
			return false, false
		}
		// Look for `if errIdent != nil { ... }` in the following
		// statements (idiomatically the very next one).
		for _, next := range list[idx+1:] {
			ifs, ok := next.(*ast.IfStmt)
			if !ok {
				continue
			}
			if !condChecksErr(info, ifs.Cond, errIdent) {
				continue
			}
			return true, containsRollback(ifs.Body)
		}
		return false, false
	case *ast.IfStmt:
		// if _, err := jw.Append(e); err != nil { ... }
		if init, ok := s.Init.(*ast.AssignStmt); ok {
			if errIdent := assignedError(info, init, call); errIdent != nil && condChecksErr(info, s.Cond, errIdent) {
				return true, containsRollback(s.Body)
			}
		}
		return false, false
	case *ast.ReturnStmt:
		// The append's results are returned verbatim: the caller owns
		// the error; within this function nothing was left dangling
		// only if the caller can also roll back — which it cannot for
		// receiver state. Treat as unhandled.
		return false, false
	}
	return false, false
}

// assignedError returns the identifier binding the error result of
// call within assignment s, nil when discarded or absent.
func assignedError(info *types.Info, s *ast.AssignStmt, call *ast.CallExpr) *ast.Ident {
	for i, rhs := range s.Rhs {
		if ast.Unparen(rhs) != call {
			continue
		}
		// Multi-value call assigned to a matching LHS list, or a
		// single-value (error-only) call.
		var lhs ast.Expr
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			lhs = s.Lhs[len(s.Lhs)-1] // error is the last result by convention
		} else if i < len(s.Lhs) {
			lhs = s.Lhs[i]
		}
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if o := vet.ObjectOf(info, id); o != nil && o.Type() != nil && vet.IsErrorType(o.Type()) {
			return id
		}
		return nil
	}
	return nil
}

// condChecksErr reports whether cond is `err != nil` (or a compound
// condition containing it) for the given error identifier's object.
func condChecksErr(info *types.Info, cond ast.Expr, errIdent *ast.Ident) bool {
	target := vet.ObjectOf(info, errIdent)
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op.String() != "!=" {
			return true
		}
		x, xo := ast.Unparen(be.X).(*ast.Ident)
		y, yo := ast.Unparen(be.Y).(*ast.Ident)
		if xo && yo && ((vet.ObjectOf(info, x) == target && y.Name == "nil") || (vet.ObjectOf(info, y) == target && x.Name == "nil")) {
			found = true
			return false
		}
		return true
	})
	return found
}

// containsRollback reports whether the block calls anything whose
// name reads as a compensation.
func containsRollback(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if rollbackName.MatchString(vet.CalleeName(call)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// firstWriteBefore returns the earliest guarded-state write rooted at
// recv positioned before pos, or nil.
func firstWriteBefore(info *types.Info, body *ast.BlockStmt, recv types.Object, limit token.Pos) ast.Node {
	var first ast.Node
	consider := func(n ast.Node) {
		if n.Pos() >= limit {
			return
		}
		if first == nil || n.Pos() < first.Pos() {
			first = n
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if root := vet.RootIdent(lhs); root != nil && vet.ObjectOf(info, root) == recv && lhs != root {
					consider(x)
				}
			}
		case *ast.IncDecStmt:
			if root := vet.RootIdent(x.X); root != nil && vet.ObjectOf(info, root) == recv && x.X != root {
				consider(x)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" && len(x.Args) > 0 {
				if root := vet.RootIdent(x.Args[0]); root != nil && vet.ObjectOf(info, root) == recv {
					consider(x)
				}
			}
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || !mutatorName.MatchString(sel.Sel.Name) {
				return true
			}
			if root := vet.RootIdent(sel.X); root != nil && vet.ObjectOf(info, root) == recv {
				consider(x)
			}
		}
		return true
	})
	return first
}

// isJournalAppend matches method calls named Append/AppendBatch whose
// receiver is a journal.Writer (matched by package and type name, so
// test stubs work the same as the real package).
func isJournalAppend(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Append") {
		return false
	}
	callee := vet.CalleeFunc(info, call)
	if callee == nil {
		return false
	}
	named := vet.NamedReceiver(callee)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Writer" && obj.Pkg() != nil && obj.Pkg().Name() == "journal"
}
