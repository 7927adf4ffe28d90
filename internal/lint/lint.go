package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects a single package
// through its Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name is the check name used in diagnostics and in
	// //simlint:allow annotations.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run performs the analysis.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Cfg      Config

	allow *allowIndex
	out   *[]Diagnostic
}

// funcDecls returns the files' function declarations that have bodies,
// in source order.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// Reportf records a diagnostic at pos. A finding covered by an
// //simlint:allow annotation is recorded with Suppressed set (so the
// tally can count it) rather than dropped; Active filters it from the
// printed findings and the exit status.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	suppressed := p.allow.allowed(position.Filename, position.Line, p.Analyzer.Name)
	*p.out = append(*p.out, Diagnostic{
		Pos:        position,
		Analyzer:   p.Analyzer.Name,
		Message:    fmt.Sprintf(format, args...),
		Suppressed: suppressed,
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks a finding covered by an //simlint:allow
	// annotation. Suppressed findings are excluded from Active output
	// but still counted in simlint's per-rule tally and read by
	// staleallow.
	Suppressed bool
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Active filters out suppressed findings: these are the diagnostics
// that gate a build.
func Active(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Config parameterizes the suite for the tree under analysis. The zero
// value disables every sanction list; DefaultConfig returns the
// repository's policy.
type Config struct {
	// ModulePath is the import-path prefix treated as "our own code".
	// errcheck only fires on calls into it (plus same-package calls).
	ModulePath string
	// EmitPkgPaths are the packages whose calls count as "emitting
	// output" inside a map-iteration body (maprange).
	EmitPkgPaths []string
	// RandPkgPath is the one package allowed to import math/rand (the
	// seeded RNG wrapper). rngprovenance also treats its New function as
	// the stream-derivation point.
	RandPkgPath string

	// TimeSinkCalls are sim-scheduling functions (types.Func.FullName
	// form, e.g. "(*repro/internal/sim.Engine).At") that must never
	// receive host-clock-derived values.
	TimeSinkCalls []string
	// TimePayloadTypes are artifact/result struct types whose fields are
	// comparison payload; storing a host-clock-derived value in one is a
	// timetaint finding.
	TimePayloadTypes []string
	// TimeSinkPkgs are packages whose calls count as report output for
	// timetaint (host-clock values must not flow into them).
	TimeSinkPkgs []string
	// SimTimePkg is the simulated-time package; conversions between its
	// Time/Duration and the host time types are flagged in both
	// directions.
	SimTimePkg string
	// CompletionCallbacks are func-typed fields ("(pkg.Type).Field")
	// invoked in job-completion order; float accumulation inside a
	// closure assigned to one is a floatorder finding.
	CompletionCallbacks []string
	// ReportStaleAllows enables reporting of //simlint:allow annotations
	// that suppress nothing.
	ReportStaleAllows bool
}

// DefaultConfig is the repository policy: internal/rng is the one
// sanctioned math/rand importer, fabric/metrics/report the packages whose
// calls count as output-emitting inside a map range, and the dataflow
// rules bound to the simulator's time and runner types.
func DefaultConfig() Config {
	return Config{
		ModulePath:   "repro",
		EmitPkgPaths: []string{"repro/internal/fabric", "repro/internal/metrics", "repro/internal/report"},
		RandPkgPath:  "repro/internal/rng",

		TimeSinkCalls: []string{
			"(*repro/internal/sim.Engine).At",
			"(*repro/internal/sim.Engine).After",
			"(*repro/internal/sim.Engine).RunUntil",
			"(*repro/internal/sim.Proc).Sleep",
		},
		TimePayloadTypes: []string{
			"repro/internal/runner.Result",
			"repro/internal/runner.Meta",
			"repro/internal/runner.Table",
			"repro/internal/runner.Failure",
			"repro/internal/runner.Artifact",
			"repro/internal/report.Table",
		},
		TimeSinkPkgs: []string{"repro/internal/report"},
		SimTimePkg:   "repro/internal/units",
		CompletionCallbacks: []string{
			"(repro/internal/runner.Pool).OnResult",
		},
		ReportStaleAllows: true,
	}
}

// DefaultAnalyzers returns the full suite in a stable order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		GlobalStateAnalyzer,
		MapRangeAnalyzer,
		GoroutineAnalyzer,
		MathRandAnalyzer,
		ErrcheckAnalyzer,
		TimeTaintAnalyzer,
		RNGProvenanceAnalyzer,
		FloatOrderAnalyzer,
		StaleAllowAnalyzer,
	}
}

// AnalyzerByName looks an analyzer up, for -run style selection.
func AnalyzerByName(name string) (*Analyzer, bool) {
	for _, a := range DefaultAnalyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// AnalyzersFor applies the repository policy: deterministic-simulator
// invariants (wallclock, globalstate, maprange, goroutine, timetaint,
// rngprovenance) are enforced on every internal/ package; the
// module-wide checks (mathrand, errcheck, floatorder, staleallow) also
// cover the root package, cmd/ drivers, and examples. floatorder is
// module-wide because completion callbacks are assigned where a pool is
// built, which is in cmd/repro.
func AnalyzersFor(cfg Config, pkgPath string) []*Analyzer {
	if strings.HasPrefix(pkgPath, cfg.ModulePath+"/internal/") {
		return DefaultAnalyzers()
	}
	return []*Analyzer{MathRandAnalyzer, ErrcheckAnalyzer, FloatOrderAnalyzer, StaleAllowAnalyzer}
}

// Run applies each analyzer to each package and returns the findings
// sorted by position. The analyzers-per-package selection is the
// caller's: pass select == nil to run every analyzer everywhere.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg Config, selectFn func(pkgPath string) []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		active := analyzers
		if selectFn != nil {
			active = selectFn(pkg.Path)
		}
		if len(active) == 0 {
			continue
		}
		allow := buildAllowIndex(pkg.Fset, pkg.Files)
		for _, a := range active {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Cfg:      cfg,
				allow:    allow,
				out:      &out,
			}
			a.Run(pass)
		}
		if cfg.ReportStaleAllows {
			out = append(out, staleAllowDiags(allow, active)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// LintModule loads the module rooted at moduleRoot and runs the full
// suite under the repository policy. This is the entry point shared by
// cmd/simlint and the clean-tree meta-test. The result includes
// suppressed findings; gate on Active(diags).
func LintModule(moduleRoot string) ([]Diagnostic, error) {
	cfg := DefaultConfig()
	loader := NewLoader(cfg.ModulePath, moduleRoot)
	pkgs, err := loader.LoadTree()
	if err != nil {
		return nil, err
	}
	return Run(pkgs, DefaultAnalyzers(), cfg, func(p string) []*Analyzer { return AnalyzersFor(cfg, p) }), nil
}
