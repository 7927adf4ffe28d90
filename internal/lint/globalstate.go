package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// GlobalStateAnalyzer enforces rule 2: no global mutable state in
// deterministic packages. A package-level var is flagged when any
// function other than init writes to it (assignment, compound
// assignment, ++/--, element or field store) or takes its address
// (which would let it escape to arbitrary writers), explicitly with & or
// implicitly, by selecting a pointer-receiver method on it: pool.Put(x)
// on a package-level sync.Pool is (&pool).Put(x). Read-only tables,
// error sentinels, value-receiver method calls, and vars touched only by
// init remain legal: they cannot make two runs diverge.
var GlobalStateAnalyzer = &Analyzer{
	Name: "globalstate",
	Doc: "flags package-level vars written outside init in deterministic packages; " +
		"cross-run state makes sweep results depend on execution history",
	Run: runGlobalState,
}

// globalWrite records one mutation site of a package-level var.
type globalWrite struct {
	obj  types.Object
	pos  token.Pos
	kind string
}

func runGlobalState(pass *Pass) {
	// Collect the package-level var objects and their declaration sites.
	declPos := map[types.Object]token.Pos{}
	var order []types.Object
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					if obj := pass.Info.Defs[name]; obj != nil {
						declPos[obj] = name.Pos()
						order = append(order, obj)
					}
				}
			}
		}
	}
	if len(declPos) == 0 {
		return
	}

	// Scan every function body except init for writes to those objects.
	var writes []globalWrite
	record := func(expr ast.Expr, pos token.Pos, kind string) {
		id := rootIdent(expr)
		if id == nil {
			return
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return
		}
		if _, isGlobal := declPos[obj]; isGlobal {
			writes = append(writes, globalWrite{obj: obj, pos: pos, kind: kind})
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv == nil && fd.Name.Name == "init" {
				continue // init-time writes are deterministic by construction
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range n.Lhs {
						record(lhs, n.Pos(), "assigned")
					}
				case *ast.IncDecStmt:
					record(n.X, n.Pos(), "mutated")
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						record(n.X, n.Pos(), "address-taken")
					}
				case *ast.SelectorExpr:
					if takesAddress(pass, n) {
						record(n.X, n.Pos(), "address-taken")
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						record(n.Key, n.Pos(), "assigned")
						record(n.Value, n.Pos(), "assigned")
					}
				}
				return true
			})
		}
	}
	if len(writes) == 0 {
		return
	}
	// Report once per var, at its declaration, citing the first write in
	// position order so output is stable.
	sort.Slice(writes, func(i, j int) bool { return writes[i].pos < writes[j].pos })
	first := map[types.Object]globalWrite{}
	for _, w := range writes {
		if _, seen := first[w.obj]; !seen {
			first[w.obj] = w
		}
	}
	for _, obj := range order {
		w, hit := first[obj]
		if !hit {
			continue
		}
		at := pass.Fset.Position(w.pos)
		pass.Reportf(declPos[obj],
			"package-level var %s is %s outside init (at %s:%d); deterministic packages must not carry "+
				"global mutable state (annotate //simlint:allow globalstate if the access pattern is provably safe)",
			obj.Name(), w.kind, at.Filename, at.Line)
	}
}

// takesAddress reports whether sel selects a pointer-receiver method on an
// addressable value, which takes that value's address implicitly. A path
// through a pointer (an embedded *T, say) leaves the value itself alone.
func takesAddress(pass *Pass, sel *ast.SelectorExpr) bool {
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal || s.Indirect() {
		return false
	}
	recv := s.Obj().(*types.Func).Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if _, ptrRecv := recv.Type().(*types.Pointer); !ptrRecv {
		return false
	}
	_, ptrX := s.Recv().Underlying().(*types.Pointer)
	return !ptrX
}

// rootIdent unwraps selector/index/star/paren chains to the base
// identifier, so writes through x.f, x[i], and *x all attribute to x.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
