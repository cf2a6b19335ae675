// Package followerwrite enforces the replica read/write split:
// handlers registered on GET routes in the server and replica
// packages are served by followers, and nothing reachable from them —
// through any chain of calls or stored function values — may append
// to the journal, apply ledger entries, or mutate the tree. Writes
// must reach the primary via the follower's 307 redirect, never
// execute locally against a replica's state.
//
// Roots are found syntactically (HandleFunc/Handle registrations
// whose pattern is a "GET "-prefixed constant), reachability runs
// over the shared module call graph, and each finding cites a
// concrete call path so the leak is auditable. Matching is by package
// and type name, so test stubs behave like the real packages.
package followerwrite

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"incentivetree/internal/vet"
)

// servingPackages are the packages whose GET registrations are served
// by followers.
var servingPackages = map[string]bool{"server": true, "replica": true}

// treeMutators are the tree.Tree methods that mutate guarded state.
var treeMutators = map[string]bool{
	"Add": true, "AddUnchecked": true, "MustAdd": true,
	"SetContribution": true, "AddContribution": true,
	"SetLabel": true, "ResetTo": true,
}

// root is one follower-served route registration.
type root struct {
	fn      *types.Func
	pattern string
	pos     token.Position
}

// New returns a fresh analyzer instance.
func New() *vet.Analyzer {
	var (
		graph *vet.Graph
		roots []root
	)
	return &vet.Analyzer{
		Name: "followerwrite",
		Doc:  "handlers reachable from follower-served GET routes never append to the journal, apply ledger entries, or mutate the tree",
		Run: func(pass *vet.Pass) {
			if graph == nil {
				graph = pass.Graph
			}
			if !servingPackages[pass.Pkg.Name()] {
				return
			}
			for _, file := range pass.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if fn, pattern, ok := getRegistration(pass.Info, call); ok {
						roots = append(roots, root{fn: fn, pattern: pattern, pos: pass.Fset.Position(call.Pos())})
					}
					return true
				})
			}
		},
		Finish: func(report func(pos token.Position, format string, args ...any)) {
			if graph == nil {
				return
			}
			analyze(graph, roots, report)
		},
	}
}

// getRegistration matches mux.HandleFunc("GET /x", s.handler) (and
// Handle with a handler-wrapping conversion), returning the resolved
// handler function and the route pattern.
func getRegistration(info *types.Info, call *ast.CallExpr) (*types.Func, string, bool) {
	name := vet.CalleeName(call)
	if (name != "HandleFunc" && name != "Handle") || len(call.Args) < 2 {
		return nil, "", false
	}
	pattern, ok := vet.ConstString(info, call.Args[0])
	if !ok || !strings.HasPrefix(pattern, "GET ") {
		return nil, "", false
	}
	fn := handlerFunc(info, call.Args[1])
	if fn == nil {
		return nil, "", false
	}
	return fn, pattern, true
}

// handlerFunc resolves the function a handler expression denotes,
// unwrapping single-argument conversions (http.HandlerFunc(h)).
func handlerFunc(info *types.Info, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := vet.ObjectOf(info, x.Sel).(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := vet.ObjectOf(info, x).(*types.Func)
		return fn
	case *ast.CallExpr:
		if len(x.Args) == 1 {
			return handlerFunc(info, x.Args[0])
		}
	}
	return nil
}

func analyze(graph *vet.Graph, roots []root, report func(pos token.Position, format string, args ...any)) {
	// The banned set, in graph order for deterministic reporting.
	var banned []*vet.FuncInfo
	bannedDesc := make(map[*vet.FuncInfo]string)
	for _, fi := range graph.Funcs() {
		if d := bannedTarget(fi.Func); d != "" {
			banned = append(banned, fi)
			bannedDesc[fi] = d
		}
	}
	if len(banned) == 0 {
		return
	}

	seen := make(map[*types.Func]bool) // one report set per handler
	for _, r := range roots {
		if seen[r.fn] {
			continue
		}
		seen[r.fn] = true
		fi := graph.Lookup(r.fn)
		if fi == nil {
			continue
		}
		reachable := graph.Reachable([]*vet.FuncInfo{fi}, nil)
		for _, b := range banned {
			if !reachable[b] {
				continue
			}
			path := graph.Path(fi, b, nil)
			report(r.pos, "follower-served route %q handler %s can reach %s (%s): %s; writes must 307 to the primary",
				r.pattern, funcName(fi), funcName(b), bannedDesc[b], renderPath(fi, path))
		}
	}
}

// bannedTarget classifies fn as a write a follower must never perform.
func bannedTarget(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	recv := vet.NamedReceiver(fn)
	if recv == nil {
		return ""
	}
	pkg, typ, name := fn.Pkg().Name(), recv.Obj().Name(), fn.Name()
	switch {
	case pkg == "journal" && typ == "Writer" && strings.HasPrefix(name, "Append"):
		return "journal append"
	case pkg == "journal" && typ == "Ledger" && strings.HasPrefix(name, "Apply"):
		return "ledger mutation"
	case pkg == "tree" && typ == "Tree" && treeMutators[name]:
		return "tree mutation"
	}
	return ""
}

// funcName renders pkg.Type.Method or pkg.Func.
func funcName(fi *vet.FuncInfo) string {
	fn := fi.Func
	name := fn.Pkg().Name() + "."
	if recv := vet.NamedReceiver(fn); recv != nil {
		name += recv.Obj().Name() + "."
	}
	return name + fn.Name()
}

// renderPath joins a call chain as "via a → b → c".
func renderPath(from *vet.FuncInfo, path []*vet.Edge) string {
	names := []string{funcName(from)}
	for _, e := range path {
		names = append(names, funcName(e.Callee))
	}
	return "via " + strings.Join(names, " → ")
}
