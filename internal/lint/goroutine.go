package lint

import (
	"go/ast"
	"go/types"
)

// exprString renders an expression compactly for diagnostics.
func exprString(expr ast.Expr) string { return types.ExprString(expr) }

// GoroutineAnalyzer enforces rule 4: the discrete-event kernel owns
// concurrency. Simulated processes are coroutines (iter.Pull) switched
// one at a time by the engine, so no deterministic package needs a go
// statement; one introduces a scheduler race that the sim clock cannot
// serialize. The runner's worker pool is the annotated exception.
var GoroutineAnalyzer = &Analyzer{
	Name: "goroutine",
	Doc: "forbids go statements in deterministic packages; " +
		"raw goroutines race against the deterministic event scheduler",
	Run: runGoroutine,
}

func runGoroutine(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"go statement in a deterministic package; "+
						"deterministic code must run as engine-scheduled processes "+
						"(annotate //simlint:allow goroutine for sanctioned host-parallelism)")
			}
			return true
		})
	}
}
