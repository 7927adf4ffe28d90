package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RNGProvenanceAnalyzer checks that every randomness stream derives from
// a run-level seed and that no two derivations collide. The repository's
// splittable RNG makes stream construction explicit (rng.New(key)), so
// the seed expression's provenance is checkable: a constant key reseeds
// identically on every run regardless of the configured seed, two
// identical keys alias the same stream, and a loop-invariant key hands
// every iteration the same sequence.
var RNGProvenanceAnalyzer = &Analyzer{
	Name: "rngprovenance",
	Doc: "verifies rng stream derivations trace to a seed parameter: flags rng.New keys that are " +
		"constants, identical keys derived twice in one function (stream collision), and " +
		"loop-invariant keys that hand every iteration the same stream.",
	Run: runRNGProvenance,
}

func runRNGProvenance(pass *Pass) {
	if pass.Cfg.RandPkgPath == "" {
		return
	}
	newFull := pass.Cfg.RandPkgPath + ".New"
	for _, fd := range funcDecls(pass.Files) {
		first := map[string]token.Pos{} // key text → its first derivation
		inspectLoops(fd.Body, nil, func(n, loop ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return
			}
			if fn := staticCallee(pass.Info, call); fn == nil || fn.FullName() != newFull {
				return
			}
			key := call.Args[0]
			text := types.ExprString(key)
			prior, collides := first[text]
			if !collides {
				first[text] = call.Pos()
			}
			switch {
			case pass.Info.Types[key].Value != nil:
				pass.Reportf(call.Pos(), "rng stream seeded from constants only: derive the key from the run's seed parameter")
			case loop != nil && !variesIn(pass.Info, key, loop):
				pass.Reportf(call.Pos(), "rng stream key does not vary across loop iterations: every iteration derives the same stream")
			case collides:
				pass.Reportf(call.Pos(), "rng stream derives the same key as the derivation at line %d: colliding streams share one sequence", pass.Fset.Position(prior).Line)
			}
		})
	}
}

// variesIn reports whether key can change between iterations of loop:
// it reads a variable declared or assigned inside the loop, or it calls
// a function or receives from a channel.
func variesIn(info *types.Info, key ast.Expr, loop ast.Node) bool {
	vars := map[types.Object]bool{}
	assigned := func(e ast.Expr) {
		if id := rootIdent(e); id != nil && info.ObjectOf(id) != nil {
			vars[info.ObjectOf(id)] = true
		}
	}
	ast.Inspect(loop, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Defs[n]; obj != nil {
				vars[obj] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				assigned(lhs)
			}
		case *ast.IncDecStmt:
			assigned(n.X)
		case *ast.RangeStmt:
			assigned(n.Key)
			assigned(n.Value)
		}
		return true
	})
	found := false
	ast.Inspect(key, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			found = found || vars[info.ObjectOf(n)]
		case *ast.UnaryExpr:
			found = found || n.Op == token.ARROW
		case *ast.CallExpr:
			found = found || !info.Types[n.Fun].IsType()
		}
		return !found
	})
	return found
}

// inspectLoops calls visit for every node below root, together with
// the innermost for or range statement enclosing it (loop, or nil when
// root is outside any loop).
func inspectLoops(root, loop ast.Node, visit func(n, loop ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil || n == root {
			return n != nil
		}
		visit(n, loop)
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			inspectLoops(n, n, visit)
			return false
		}
		return true
	})
}
