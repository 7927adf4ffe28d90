package lint

import (
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation regex from a `// want` comment. Both
// `// want "..."` and "// want `...`" forms are accepted.
var wantRe = regexp.MustCompile("^want\\s+(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// testConfig is the analyzer configuration used over testdata packages:
// the sink subpackage plays fabric/metrics/report, sanctioned.go plays
// internal/sim/proc.go, and the module prefix matches the testdata tree.
// The v2 dataflow rules bind to conventional names (Engine, Result, Pool,
// unitsx, rngx) under the same prefix.
func testConfig(pkgPath string) Config {
	return Config{
		ModulePath:   pkgPath,
		EmitPkgPaths: []string{pkgPath + "/sink"},
		RandPkgPath:  pkgPath + "/rngx",
		SpawnSites:   map[string]bool{pkgPath + ":sanctioned.go": true},

		TimeSinkCalls: []string{
			"(*" + pkgPath + ".Engine).After",
			"(*" + pkgPath + ".Engine).At",
		},
		TimePayloadTypes:    []string{pkgPath + ".Result"},
		TimeSinkPkgs:        []string{pkgPath + "/sink"},
		SimTimePkg:          pkgPath + "/unitsx",
		CompletionCallbacks: []string{"(" + pkgPath + ".Pool).OnResult"},
	}
}

// loadTestdata mounts testdata/src/<pkgPath> under the synthetic import
// path pkgPath and loads it.
func loadTestdata(t *testing.T, pkgPath string) *Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", pkgPath))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader("unused.example/none", filepath.Join(dir, "no-such-module-root"))
	l.Overlay = map[string]string{pkgPath: dir}
	pkg, err := l.Load(pkgPath)
	if err != nil {
		t.Fatalf("loading testdata package %q: %v", pkgPath, err)
	}
	return pkg
}

// runTestdata runs one analyzer over its testdata package and compares
// the diagnostics against the package's `// want` comments: every want
// must be hit on its line, and every diagnostic must be wanted.
func runTestdata(t *testing.T, a *Analyzer, pkgPath string) {
	t.Helper()
	pkg := loadTestdata(t, pkgPath)

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := wantRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", pat, err)
				}
				pos := pkg.Fset.Position(c.Slash)
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("testdata package %q has no `// want` expectations", pkgPath)
	}

	diags := Active(Run([]*Package{pkg}, []*Analyzer{a}, testConfig(pkgPath), nil))
	for _, d := range diags {
		hit := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestWallclock(t *testing.T)     { runTestdata(t, WallclockAnalyzer, "wallclock") }
func TestGlobalState(t *testing.T)   { runTestdata(t, GlobalStateAnalyzer, "globalstate") }
func TestMapRange(t *testing.T)      { runTestdata(t, MapRangeAnalyzer, "maprange") }
func TestGoroutine(t *testing.T)     { runTestdata(t, GoroutineAnalyzer, "goroutine") }
func TestMathRand(t *testing.T)      { runTestdata(t, MathRandAnalyzer, "mathrand") }
func TestErrcheck(t *testing.T)      { runTestdata(t, ErrcheckAnalyzer, "errcheck") }
func TestTimeTaint(t *testing.T)     { runTestdata(t, TimeTaintAnalyzer, "timetaint") }
func TestRNGProvenance(t *testing.T) { runTestdata(t, RNGProvenanceAnalyzer, "rngprovenance") }
func TestFloatOrder(t *testing.T)    { runTestdata(t, FloatOrderAnalyzer, "floatorder") }
func TestAllowGrammar(t *testing.T)  { runTestdata(t, WallclockAnalyzer, "allowgrammar") }

// TestSuppressedRetained pins the v2 reporting contract: an allowed
// finding is carried with Suppressed set rather than dropped, so
// machine-readable output can state the allow-state.
func TestSuppressedRetained(t *testing.T) {
	pkg := loadTestdata(t, "allowgrammar")
	diags := Run([]*Package{pkg}, []*Analyzer{WallclockAnalyzer}, testConfig("allowgrammar"), nil)
	var suppressed, active int
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
		} else {
			active++
		}
	}
	if suppressed != 2 || active != 1 {
		t.Errorf("got %d suppressed / %d active findings, want 2 / 1: %v", suppressed, active, diags)
	}
}

// TestStaleAllow exercises the annotation-hygiene epilogue directly:
// stale entries, unknown names, the "all" wildcard, and the rule that
// only checks in the active set are judged.
func TestStaleAllow(t *testing.T) {
	pkg := loadTestdata(t, "staleallow")
	cfg := testConfig("staleallow")
	cfg.ReportStaleAllows = true
	diags := Active(Run([]*Package{pkg}, []*Analyzer{WallclockAnalyzer, StaleAllowAnalyzer}, cfg, nil))
	var got []string
	for _, d := range diags {
		if d.Analyzer != "staleallow" {
			t.Errorf("unexpected non-staleallow diagnostic: %s", d)
			continue
		}
		got = append(got, d.Message)
	}
	want := []string{
		`stale //simlint:allow wallclock: the check reports nothing here`,
		`unknown check "wallclocks" in //simlint:allow annotation`,
		`stale //simlint:allow all: no check reports anything here`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("staleallow diagnostics = %q, want %q", got, want)
	}
}

// TestStaleAllowOff pins that the epilogue is opt-in: with
// ReportStaleAllows unset the same package produces no hygiene
// diagnostics.
func TestStaleAllowOff(t *testing.T) {
	pkg := loadTestdata(t, "staleallow")
	diags := Active(Run([]*Package{pkg}, []*Analyzer{WallclockAnalyzer, StaleAllowAnalyzer}, testConfig("staleallow"), nil))
	if len(diags) != 0 {
		t.Errorf("ReportStaleAllows=false still produced %v", diags)
	}
}

// TestMathRandSanctionedPackage checks the one escape valve: the
// configured RNG wrapper package may import math/rand.
func TestMathRandSanctionedPackage(t *testing.T) {
	pkg := loadTestdata(t, "mathrand")
	cfg := testConfig("mathrand")
	cfg.RandPkgPath = "mathrand"
	if diags := Run([]*Package{pkg}, []*Analyzer{MathRandAnalyzer}, cfg, nil); len(diags) != 0 {
		t.Errorf("sanctioned package still flagged: %v", diags)
	}
}

// TestRepoTreeIsClean is the meta-test: the full suite, under the real
// repository policy, finds nothing active in the real tree (suppressed
// findings are carried for machine-readable output but do not gate).
// Any invariant violation — or stale allow annotation — introduced
// anywhere in the module fails this test.
func TestRepoTreeIsClean(t *testing.T) {
	diags, err := LintModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	active := Active(diags)
	for _, d := range active {
		t.Errorf("%s", d)
	}
	if len(active) > 0 {
		t.Errorf("simlint found %d violation(s) in the repository tree", len(active))
	}
}

// TestPolicy pins which analyzers run where: the determinism rules on
// internal packages, the module-wide hygiene rules everywhere else.
func TestPolicy(t *testing.T) {
	cfg := DefaultConfig()
	names := func(as []*Analyzer) []string {
		out := make([]string, len(as))
		for i, a := range as {
			out[i] = a.Name
		}
		return out
	}
	all := []string{"wallclock", "globalstate", "maprange", "goroutine", "mathrand", "errcheck",
		"timetaint", "rngprovenance", "floatorder", "staleallow"}
	hygiene := []string{"mathrand", "errcheck", "staleallow"}
	cases := []struct {
		pkg  string
		want []string
	}{
		{"repro/internal/sim", all},
		{"repro/internal/mpi/mvib", all},
		{"repro/internal/runner", all},
		{"repro", hygiene},
		{"repro/cmd/repro", hygiene},
		{"repro/examples/quickstart", hygiene},
	}
	for _, c := range cases {
		if got := names(AnalyzersFor(cfg, c.pkg)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("AnalyzersFor(%s) = %v, want %v", c.pkg, got, c.want)
		}
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"//simlint:allow wallclock", []string{"wallclock"}},
		{"//simlint:allow wallclock — progress/ETA only", []string{"wallclock"}},
		{"//simlint:allow wallclock,goroutine — both", []string{"wallclock", "goroutine"}},
		{"//simlint:allow\twallclock", []string{"wallclock"}},
		{"//simlint:allow", nil},
		{"//simlint:allowx wallclock", nil},
		{"// simlint:allow wallclock", nil}, // must be machine-readable: no space after //
		{"//simlint:deny wallclock", nil},
		{"// plain comment", nil},
	}
	for _, c := range cases {
		if got := parseAllow(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestDiagnosticString pins the file:line:col rendering that cmd/simlint
// and editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "wallclock", Message: "m"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "a/b.go", 3, 7
	if got, want := d.String(), "a/b.go:3:7: wallclock: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestAnalyzerDocs makes sure every analyzer is discoverable by name
// with a non-empty doc — simlint -list depends on it.
func TestAnalyzerDocs(t *testing.T) {
	for _, a := range DefaultAnalyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely declared", a)
		}
		got, ok := AnalyzerByName(a.Name)
		if !ok || got != a {
			t.Errorf("AnalyzerByName(%q) did not round-trip", a.Name)
		}
	}
	if _, ok := AnalyzerByName("no-such-analyzer"); ok {
		t.Error("AnalyzerByName accepted an unknown name")
	}
}

// TestLoaderRejectsForeignPath pins the loader's jurisdiction error.
func TestLoaderRejectsForeignPath(t *testing.T) {
	l := NewLoader("repro", filepath.Join("..", ".."))
	if _, err := l.Load("example.com/elsewhere"); err == nil {
		t.Error("Load of a non-module path should fail")
	}
}
