package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TimeTaintAnalyzer taint-tracks host-clock values through each
// function. It subsumes wallclock's call-site ban with a flow property:
// a time.Time/time.Duration may exist (progress lines, retry pacing,
// timeouts) but must never reach a sim scheduling call, an artifact
// payload field, or report output. Symmetrically, conversions between
// the sim-time package's types and the host time types are flagged in
// both directions — the two clock domains must not mix.
var TimeTaintAnalyzer = &Analyzer{
	Name: "timetaint",
	Doc: "tracks time.Time/time.Duration values (clock reads, host-time fields, parameters, receives) " +
		"through locals, struct fields, and closures; flags any flow into sim scheduling calls, " +
		"artifact payload fields, or report output, and any conversion between host time types and " +
		"the simulated-time units types.",
	Run: runTimeTaint,
}

func runTimeTaint(pass *Pass) {
	cfg := pass.Cfg
	info := pass.Info
	sinkCalls := stringSet(cfg.TimeSinkCalls)
	sinkPkgs := stringSet(cfg.TimeSinkPkgs)
	payload := stringSet(cfg.TimePayloadTypes)
	isSimTime := func(t types.Type) bool {
		switch qualifiedTypeName(t) {
		case cfg.SimTimePkg + ".Time", cfg.SimTimePkg + ".Duration":
			return cfg.SimTimePkg != ""
		}
		return false
	}

	// Sources: any non-constant value of a host time type. Constants
	// (3 * time.Second) are excluded: the clock has to be involved.
	source := func(e ast.Expr) bool {
		tv := info.Types[e]
		return !tv.IsType() && tv.Value == nil && isHostTime(tv.Type)
	}
	// Calls that forward taint from arguments to result: the time and
	// sim-time packages' own arithmetic, formatting helpers, builtins,
	// and calls through function values (unknown targets stay
	// conservative).
	through := func(call *ast.CallExpr) bool {
		fn := staticCallee(info, call)
		if fn == nil {
			return true
		}
		if fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "time", "fmt", "strconv", "math", cfg.SimTimePkg:
			return true
		}
		return false
	}

	// payloadField walks a store target outward-in and returns the first
	// field belonging to a configured payload type, so stores through
	// nested paths (a.Meta.WallMS, rows[i].Cells) are attributed.
	payloadField := func(lhs ast.Expr) (string, string) {
		for {
			switch e := lhs.(type) {
			case *ast.SelectorExpr:
				if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
					if owner := qualifiedTypeName(info.TypeOf(e.X)); payload[owner] {
						return owner, e.Sel.Name
					}
				}
				lhs = e.X
			case *ast.IndexExpr:
				lhs = e.X
			case *ast.StarExpr:
				lhs = e.X
			case *ast.ParenExpr:
				lhs = e.X
			default:
				return "", ""
			}
		}
	}

	for _, fd := range funcDecls(pass.Files) {
		flow := newFlowSet(info, fd.Body, source, through)
		store := func(pos token.Pos, owner, field string, val ast.Expr) {
			if owner != "" && flow.expr(val) {
				pass.Reportf(pos, "host-clock value stored in artifact payload field %s.%s", owner, field)
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					pos := lhs.Pos()
					if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
						pos = n.TokPos
					}
					owner, field := payloadField(lhs)
					store(pos, owner, field, n.Rhs[min(i, len(n.Rhs)-1)])
				}
			case *ast.CompositeLit:
				owner := qualifiedTypeName(info.TypeOf(n))
				st, ok := info.TypeOf(n).Underlying().(*types.Struct)
				if !payload[owner] || !ok {
					return true
				}
				for i, el := range n.Elts {
					field, val := st.Field(i).Name(), el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						field, val = kv.Key.(*ast.Ident).Name, kv.Value
					}
					store(val.Pos(), owner, field, val)
				}
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() && len(n.Args) == 1 {
					to, from := tv.Type, info.TypeOf(n.Args[0])
					if isSimTime(to) && (isHostTime(from) || flow.expr(n.Args[0])) {
						pass.Reportf(n.Pos(), "host-clock value converted to sim-time %s: the two clock domains must not mix", qualifiedTypeName(to))
					} else if isHostTime(to) && isSimTime(from) {
						pass.Reportf(n.Pos(), "sim-time value converted to host-time %s: the two clock domains must not mix", qualifiedTypeName(to))
					}
					return true
				}
				fn := staticCallee(info, n)
				if fn == nil {
					return true
				}
				var msg string
				switch {
				case sinkCalls[fn.FullName()]:
					msg = "host-clock value flows into sim scheduling call %s"
				case fn.Pkg() != nil && sinkPkgs[fn.Pkg().Path()]:
					msg = "host-clock value flows into report output (%s)"
				default:
					return true
				}
				for _, a := range n.Args {
					if flow.expr(a) {
						pass.Reportf(n.Pos(), msg, fn.FullName())
						break
					}
				}
			}
			return true
		})
	}
}

// isHostTime reports whether t is one of the host clock's types.
func isHostTime(t types.Type) bool {
	switch qualifiedTypeName(t) {
	case "time.Time", "time.Duration":
		return true
	}
	return false
}

// qualifiedTypeName renders a (possibly pointer-wrapped) named type as
// "pkgpath.Name", or "" for anything unnamed.
func qualifiedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if obj := named.Obj(); obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return named.Obj().Name()
}

func stringSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

// flowSet is a flow-insensitive taint set over one function, including
// the function literals nested in it. A local is keyed by its
// types.Object, so a closure's capture is the variable it captures; a
// struct field is keyed by its selector path from that object, so h.n
// can be tainted while its sibling h.m stays clean. Taint enters at
// expressions the source predicate accepts and spreads through
// assignments, declarations and range clauses to a fixpoint.
type flowSet struct {
	info   *types.Info
	source func(ast.Expr) bool
	// through reports whether a call forwards its arguments' taint to
	// its result; nil means no call does. Conversions always do.
	through func(*ast.CallExpr) bool
	tainted map[flowKey]bool
}

// flowKey names a storage location: a variable, or a field/element path
// below one ("[]" stands for any index).
type flowKey struct {
	root types.Object
	path string
}

func newFlowSet(info *types.Info, body *ast.BlockStmt, source func(ast.Expr) bool, through func(*ast.CallExpr) bool) *flowSet {
	s := &flowSet{info: info, source: source, through: through, tainted: map[flowKey]bool{}}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					changed = s.assign(lhs, n.Rhs[min(i, len(n.Rhs)-1)]) || changed
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if len(n.Values) > 0 {
						changed = s.assign(name, n.Values[min(i, len(n.Values)-1)]) || changed
					}
				}
			case *ast.RangeStmt:
				for _, v := range []ast.Expr{n.Key, n.Value} {
					if v != nil {
						changed = s.assign(v, n.X) || changed
					}
				}
			}
			return true
		})
	}
	return s
}

// assign propagates rhs's taint to the location lhs names and reports
// whether the set grew. A struct literal is not tainted as a whole:
// each tainted element taints only the field it initializes.
func (s *flowSet) assign(lhs, rhs ast.Expr) bool {
	k, ok := s.key(lhs)
	if !ok {
		return false
	}
	if lit := structLit(s.info, rhs); lit != nil {
		grew := false
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok && s.expr(kv.Value) {
				grew = s.mark(flowKey{k.root, k.path + "." + kv.Key.(*ast.Ident).Name}) || grew
			}
		}
		return grew
	}
	return s.expr(rhs) && s.mark(k)
}

func (s *flowSet) mark(k flowKey) bool {
	if s.tainted[k] {
		return false
	}
	s.tainted[k] = true
	return true
}

// key names the location an expression reads or writes, if it is a
// variable or a field/index path rooted at one.
func (s *flowSet) key(e ast.Expr) (flowKey, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := s.info.ObjectOf(e)
		return flowKey{root: obj}, obj != nil
	case *ast.ParenExpr:
		return s.key(e.X)
	case *ast.StarExpr:
		return s.key(e.X)
	case *ast.IndexExpr:
		k, ok := s.key(e.X)
		k.path += "[]"
		return k, ok
	case *ast.SelectorExpr:
		sel := s.info.Selections[e]
		if sel == nil {
			return s.key(e.Sel) // qualified identifier
		}
		if sel.Kind() != types.FieldVal {
			return flowKey{}, false
		}
		k, ok := s.key(e.X)
		k.path += "." + e.Sel.Name
		return k, ok
	}
	return flowKey{}, false
}

// expr reports whether e carries taint: it contains a source or a
// tainted location, reached through operators, conversions, non-struct
// literals and the calls the through predicate forwards. Struct
// literals carry their taint per field.
func (s *flowSet) expr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		// A function literal's body is statements, not part of the
		// value, so the walk stops at any non-expression.
		x, ok := n.(ast.Expr)
		if found || !ok {
			return false
		}
		if s.source(x) {
			found = true
			return false
		}
		if k, ok := s.key(x); ok && s.tainted[k] {
			found = true
			return false
		}
		switch x := x.(type) {
		case *ast.CompositeLit:
			return structLit(s.info, x) == nil
		case *ast.CallExpr:
			if s.info.Types[x.Fun].IsType() {
				return true
			}
			return s.through != nil && s.through(x)
		}
		return true
	})
	return found
}

// structLit returns e as a struct composite literal (through & and
// parentheses), or nil.
func structLit(info *types.Info, e ast.Expr) *ast.CompositeLit {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	if _, isStruct := info.TypeOf(lit).Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return lit
}
