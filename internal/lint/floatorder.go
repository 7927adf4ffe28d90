package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatOrderAnalyzer extends maprange's float-accumulation rule from map
// iteration order to the other nondeterministic orders in the codebase:
// channel receive order (whichever worker finishes first delivers first)
// and goroutine completion order (a closure accumulating into captured
// state from a spawned goroutine or a per-completion callback). Float
// addition is not associative, so any such reduction makes the final
// bits depend on scheduling.
var FloatOrderAnalyzer = &Analyzer{
	Name: "floatorder",
	Doc: "flags floating-point reductions whose operand order depends on scheduling: accumulating " +
		"channel receives in a loop, or accumulating into captured state from a spawned goroutine " +
		"or a completion callback. Accumulate into an index-addressed slot and reduce in a fixed " +
		"order instead.",
	Run: runFloatOrder,
}

func runFloatOrder(pass *Pass) {
	info := pass.Info
	callbacks := parseFieldSpecs(pass.Cfg.CompletionCallbacks)
	isCallback := func(owner types.Type, field string) bool {
		for _, s := range callbacks {
			if s.field == field && s.owner == qualifiedTypeName(owner) {
				return true
			}
		}
		return false
	}

	for _, fd := range funcDecls(pass.Files) {
		// Rule 1: float accumulation of a channel-delivered value inside
		// a loop — receive order decides operand order. A channel taints
		// what a receive or a range clause takes from it.
		received := newFlowSet(info, fd.Body, func(e ast.Expr) bool {
			t := info.TypeOf(e)
			if t == nil {
				return false
			}
			_, isChan := t.Underlying().(*types.Chan)
			return isChan
		}, nil)
		inspectLoops(fd.Body, nil, func(n, loop ast.Node) {
			if as, ok := n.(*ast.AssignStmt); ok && loop != nil {
				if rhs := floatAccum(info, as); rhs != nil && received.expr(rhs) {
					pass.Reportf(as.TokPos, "float accumulation ordered by channel receive order: reduce in a fixed order instead")
				}
			}
		})

		// Rule 2: float accumulation into a variable captured from
		// outside a concurrently executed literal — completion order
		// decides operand order.
		concurrent := func(e ast.Expr, why string) {
			lit, ok := ast.Unparen(e).(*ast.FuncLit)
			if !ok {
				return
			}
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.AssignStmt:
					if floatAccum(info, n) == nil {
						return true
					}
					if obj := info.ObjectOf(rootIdent(n.Lhs[0])); obj != nil && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
						pass.Reportf(n.TokPos, "float reduction ordered by goroutine completion: %s accumulates into captured state", why)
					}
				}
				return true
			})
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				concurrent(n.Call.Fun, "a spawned goroutine")
				for _, a := range n.Call.Args {
					concurrent(a, "a spawned goroutine")
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if ok && len(n.Rhs) == len(n.Lhs) && isCallback(info.TypeOf(sel.X), sel.Sel.Name) {
						concurrent(n.Rhs[i], "a completion callback")
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && isCallback(info.TypeOf(n), key.Name) {
						concurrent(kv.Value, "a completion callback")
					}
				}
			}
			return true
		})
	}
}

// floatAccum returns the right-hand side of a float accumulation — x +=
// e, x -= e, x *= e, or x = … x … with a top-level +, - or * — and nil
// for any other statement.
func floatAccum(info *types.Info, as *ast.AssignStmt) ast.Expr {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isFloatType(info.TypeOf(as.Lhs[0])) {
		return nil
	}
	rhs := as.Rhs[0]
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		return rhs
	case token.ASSIGN:
		bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB && bin.Op != token.MUL) {
			return nil
		}
		lhs, reads := exprString(as.Lhs[0]), false
		ast.Inspect(bin, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && exprString(e) == lhs {
				reads = true
			}
			return !reads
		})
		if reads {
			return rhs
		}
	}
	return nil
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// fieldSpec is a parsed "(pkgpath.Type).Field" configuration entry.
type fieldSpec struct {
	owner, field string
}

func parseFieldSpecs(specs []string) []fieldSpec {
	var out []fieldSpec
	for _, s := range specs {
		rest, ok := strings.CutPrefix(s, "(")
		if !ok {
			continue
		}
		if owner, field, ok := strings.Cut(rest, ")."); ok {
			out = append(out, fieldSpec{owner: owner, field: field})
		}
	}
	return out
}
