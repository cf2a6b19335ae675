// Package floatorder guards the byte-determinism of reward math. The
// paper's CDRM guarantee (R(u) = R(x_u, y_u), Theorem 5) and the
// repo's crash tests both demand that recomputing rewards — live, or
// replayed after a crash — produces byte-identical float64 tables.
// Floating-point addition is not associative, so any iteration whose
// order the runtime randomizes silently breaks that, one ulp at a
// time (the PR 4 recovered-reward-table bug class).
//
// In the deterministic packages (tree, core, numeric, the mechanism
// packages, sybil, analysis) the analyzer flags:
//
//  1. floating-point accumulation (x += v, x = x + v) inside a
//     `for range` over a map — map iteration order is randomized per
//     run;
//  2. collecting map keys into a slice that is later iterated without
//     a sort call in between (the sorts-missing variant of 1);
//  3. any call of time.Now and any import of math/rand — wall clocks
//     and unseeded process randomness have no place in reward math.
//     Latency instrumentation that provably never feeds reward values
//     is suppressed inline with //itreevet:ignore.
package floatorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"incentivetree/internal/vet"
)

// New returns a fresh analyzer instance.
func New() *vet.Analyzer {
	return &vet.Analyzer{
		Name: "floatorder",
		Doc:  "deterministic packages must not accumulate floats over map order or consult time/rand",
		Run:  run,
	}
}

// deterministicPackages names the packages whose outputs must be
// byte-reproducible: the tree and numeric substrate, every mechanism
// (whose local forms also maintain the served rewards), the Sybil
// search, and reward attribution.
var deterministicPackages = map[string]bool{
	"tree": true, "core": true, "numeric": true,
	"geometric": true, "cdrm": true, "tdrm": true, "emek": true,
	"lottree": true, "mlm": true,
	"sybil": true, "analysis": true,
}

func run(pass *vet.Pass) {
	if !deterministicPackages[pass.Pkg.Name()] {
		return
	}
	for _, file := range pass.Files {
		checkImports(pass, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMapRanges(pass, fn.Body)
			checkTimeNow(pass, fn.Body)
		}
	}
}

// checkImports flags math/rand (v1 and v2) imports.
func checkImports(pass *vet.Pass, file *ast.File) {
	for _, spec := range file.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Report(spec.Pos(), "deterministic package %s imports %s: randomness breaks byte-reproducible reward tables", pass.Pkg.Name(), path)
		}
	}
}

// checkTimeNow flags calls to time.Now.
func checkTimeNow(pass *vet.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := vet.CalleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if fn.Pkg().Path() == "time" && fn.Name() == "Now" {
			pass.Report(call.Pos(), "deterministic package %s calls time.Now: wall-clock values must not reach reward math", pass.Pkg.Name())
		}
		return true
	})
}

// checkMapRanges applies checks 1 and 2 to every range-over-map in
// one function body.
func checkMapRanges(pass *vet.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok || !vet.IsMapType(tv.Type) {
			return true
		}
		checkFloatAccumulation(pass, rng)
		checkUnsortedKeys(pass, rng, body)
		return true
	})
}

// checkFloatAccumulation flags float accumulators updated inside a
// map range: the accumulator must be declared outside the loop body
// (otherwise each iteration starts fresh and order cannot matter).
func checkFloatAccumulation(pass *vet.Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		case token.ASSIGN:
			// x = x + v style: RHS must reference the LHS root.
			if len(as.Lhs) != 1 || len(as.Rhs) != 1 || !mentionsObject(pass.Info, as.Rhs[0], rootObject(pass.Info, as.Lhs[0])) {
				return true
			}
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			tv, ok := pass.Info.Types[lhs]
			if !ok || !vet.IsFloat(tv.Type) {
				continue
			}
			obj := rootObject(pass.Info, lhs)
			if obj == nil || definedWithin(obj, rng.Body) {
				continue
			}
			pass.Report(as.Pos(), "floating-point accumulation into %s inside range over map: iteration order is randomized, so the sum is not byte-deterministic — iterate sorted keys instead", exprString(lhs))
		}
		return true
	})
}

// checkUnsortedKeys flags the key-collection variant: keys appended
// to a slice inside the map range, with the slice iterated later in
// the same function and no sort call on it in between.
func checkUnsortedKeys(pass *vet.Pass, rng *ast.RangeStmt, body *ast.BlockStmt) {
	keyObj := rootObject(pass.Info, rng.Key)
	if keyObj == nil {
		return
	}
	// Find `slice = append(slice, key)` in the range body.
	var sliceObj types.Object
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		if len(call.Args) < 2 || !mentionsObject(pass.Info, call.Args[1], keyObj) {
			return true
		}
		sliceObj = rootObject(pass.Info, as.Lhs[0])
		return sliceObj == nil
	})
	if sliceObj == nil {
		return
	}
	// After the range: is the slice ranged over before any sort call?
	sorted := false
	var flagged ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || flagged != nil || n.Pos() <= rng.End() {
			return true
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if fn := vet.CalleeFunc(pass.Info, x); fn != nil && fn.Pkg() != nil {
				pkg := fn.Pkg().Path()
				if (pkg == "sort" || pkg == "slices") && len(x.Args) > 0 && mentionsObject(pass.Info, x.Args[0], sliceObj) {
					sorted = true
				}
			}
		case *ast.RangeStmt:
			if !sorted && mentionsObject(pass.Info, x.X, sliceObj) {
				flagged = x
			}
		}
		return true
	})
	if flagged != nil {
		pass.Report(flagged.Pos(), "iterating %s, a slice of map keys, without sorting it first: the element order inherits the map's randomized iteration order", sliceObj.Name())
	}
}

// rootObject resolves the base identifier of e to its object.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	root := vet.RootIdent(e)
	if root == nil {
		return nil
	}
	return vet.ObjectOf(info, root)
}

// mentionsObject reports whether expression e references obj.
func mentionsObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vet.ObjectOf(info, id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// definedWithin reports whether obj's declaration lies inside node.
func definedWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expression"
}
