package lint

import (
	"go/ast"
	"go/types"
)

// MapRangeAnalyzer enforces rule 3: iteration order over a Go map is
// randomized, so a map range whose body produces anything
// order-sensitive is nondeterministic. Flagged bodies: channel sends,
// calls into the emit packages (fabric/metrics/report) or fmt's print
// family, floating-point accumulation (float addition is not
// associative), and appends whose target is never passed to a sort
// routine later in the same function. Order-independent bodies — keyed
// stores, integer reductions, min/max scans — are legal, as is the
// canonical collect-keys-then-sort idiom.
var MapRangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc: "flags range-over-map bodies that emit, send, accumulate floats, or append without a " +
		"subsequent sort; map iteration order is randomized per run",
	Run: runMapRange,
}

func runMapRange(pass *Pass) {
	for _, fd := range funcDecls(pass.Files) {
		checkFuncForMapRanges(pass, fd.Body)
	}
}

// checkFuncForMapRanges finds map ranges whose nearest enclosing
// function body is body; nested function literals recurse so that
// "later in the same function" means the right function.
func checkFuncForMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFuncForMapRanges(pass, n.Body)
			return false
		case *ast.RangeStmt:
			if isMapType(pass, n.X) {
				checkMapRange(pass, body, n)
			}
		}
		return true
	})
}

func isMapType(pass *Pass, expr ast.Expr) bool {
	t := pass.Info.TypeOf(expr)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRange(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	var appendTargets []ast.Expr
	reported := false
	report := func(format string, args ...interface{}) {
		if !reported {
			pass.Reportf(rs.Pos(), format, args...)
			reported = true
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own scope; analyzed separately
		case *ast.RangeStmt:
			// A nested map range is checked on its own; its body's
			// operations should not double-report against the outer loop.
			if n != rs && isMapType(pass, n.X) {
				return false
			}
		case *ast.SendStmt:
			report("channel send inside range over map %s: receive order becomes nondeterministic; iterate sorted keys instead", exprString(rs.X))
		case *ast.CallExpr:
			if callee, ok := calleeOf(pass, n); ok {
				// Same-package calls are not "emitting into" the emit
				// package from outside; within fabric/metrics/report the
				// append/accumulation rules below still apply.
				if isEmitPkg(pass, callee.pkgPath) && callee.pkgPath != pass.Pkg.Path() {
					report("call to %s inside range over map %s emits in map-iteration order; iterate sorted keys instead", callee.rendered, exprString(rs.X))
				} else if callee.pkgPath == "fmt" && isPrintFunc(callee.name) {
					report("fmt output inside range over map %s prints in map-iteration order; iterate sorted keys instead", exprString(rs.X))
				}
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, n, rs, report, &appendTargets)
		}
		return true
	})
	if reported {
		return
	}
	for _, target := range appendTargets {
		// A target declared inside the loop body is fresh per iteration;
		// its append order cannot observe the map's iteration order.
		if declaredWithin(pass, target, rs.Body) {
			continue
		}
		if !sortedAfter(pass, funcBody, rs, target) {
			report("range over map %s appends to %s, which is never sorted afterward; append order is map-iteration order", exprString(rs.X), exprString(target))
			return
		}
	}
}

// checkMapRangeAssign classifies one assignment inside a map-range body:
// float accumulation is reported immediately; append targets are
// collected for the sorted-after check.
func checkMapRangeAssign(pass *Pass, as *ast.AssignStmt, rs *ast.RangeStmt, report func(string, ...interface{}), appendTargets *[]ast.Expr) {
	switch as.Tok.String() {
	case "+=", "-=", "*=", "/=":
		if len(as.Lhs) == 1 && isFloatType(pass.Info.TypeOf(as.Lhs[0])) {
			report("floating-point accumulation into %s inside range over map %s: float addition is not associative, "+
				"so the sum depends on iteration order", exprString(as.Lhs[0]), exprString(rs.X))
		}
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" {
				*appendTargets = append(*appendTargets, as.Lhs[i])
			}
		}
	}
}

// declaredWithin reports whether the root identifier of expr is defined
// inside block (e.g. a per-iteration accumulator).
func declaredWithin(pass *Pass, expr ast.Expr, block *ast.BlockStmt) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	return obj != nil && obj.Pos() >= block.Pos() && obj.Pos() < block.End()
}

// sortedAfter reports whether target is passed to a sort.* or slices.*
// call somewhere after the range statement in the enclosing function
// body — the collect-then-sort idiom.
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, target ast.Expr) bool {
	want := exprString(target)
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		callee, ok := calleeOf(pass, call)
		if !ok || (callee.pkgPath != "sort" && callee.pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if exprString(arg) == want {
				found = true
			}
		}
		return true
	})
	return found
}

func isEmitPkg(pass *Pass, pkgPath string) bool {
	for _, p := range pass.Cfg.EmitPkgPaths {
		if pkgPath == p {
			return true
		}
	}
	return false
}

func isPrintFunc(name string) bool {
	switch name {
	case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
		return true
	}
	return false
}

// callee identifies a call target: its defining package, bare function
// name, and the rendered call expression for diagnostics.
type callee struct {
	pkgPath  string
	name     string
	rendered string
}

// calleeOf resolves a call's target. Methods resolve to their defining
// package, so s.AddRow(...) on a report.Table counts as a call into
// internal/report.
func calleeOf(pass *Pass, call *ast.CallExpr) (callee, bool) {
	fn := staticCallee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return callee{}, false
	}
	rendered := fn.Name()
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		rendered = exprString(sel)
	}
	return callee{pkgPath: fn.Pkg().Path(), name: fn.Name(), rendered: rendered}, true
}

// staticCallee returns the function or method a call statically
// targets, or nil for builtins, conversions, and calls through
// function-typed values, which cannot be attributed to a definition.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
