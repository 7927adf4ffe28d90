// Command simlint runs the repository's determinism/invariant
// static-analysis suite (internal/lint) over the module tree and exits
// nonzero if any active invariant violation remains.
//
// Usage:
//
//	simlint [-C dir] [-run name[,name...]] [-list]
//
// With no flags it locates the enclosing module root (walking up from
// the working directory to go.mod) and runs every analyzer under the
// repository policy. Active findings print on stdout as file:line:col:
// analyzer: message, sorted by position, paths relative to the module
// root; the per-rule tally, including findings suppressed by
// //simlint:allow annotations, prints on stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	chdir := flag.String("C", "", "module root to lint (default: found via go.mod from cwd)")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	root := *chdir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}

	diags, err := lintRoot(root, *run)
	if err != nil {
		fatal(err)
	}
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	active := lint.Active(diags)
	for _, d := range active {
		fmt.Println(d)
	}
	printStats(diags)
	if len(active) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(active))
		os.Exit(1)
	}
}

// printStats prints per-rule counts on stderr: active findings first,
// then the allowed tally that explains a quiet run.
func printStats(diags []lint.Diagnostic) {
	type tally struct{ active, suppressed int }
	byRule := map[string]*tally{}
	for _, d := range diags {
		tl := byRule[d.Analyzer]
		if tl == nil {
			tl = &tally{}
			byRule[d.Analyzer] = tl
		}
		if d.Suppressed {
			tl.suppressed++
		} else {
			tl.active++
		}
	}
	rules := make([]string, 0, len(byRule))
	for r := range byRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		tl := byRule[r]
		line := fmt.Sprintf("simlint: %-14s %3d active", r, tl.active)
		if tl.suppressed > 0 {
			line += fmt.Sprintf(", %d allowed", tl.suppressed)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if len(rules) == 0 {
		fmt.Fprintln(os.Stderr, "simlint: no findings")
	}
}

// lintRoot runs the full suite, optionally restricted to the named
// analyzers (the policy still decides which packages each one sees). A
// restricted run cannot judge allow annotations, so stale-allow
// detection is disabled for it.
func lintRoot(root, run string) ([]lint.Diagnostic, error) {
	if run == "" {
		return lint.LintModule(root)
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := lint.AnalyzerByName(name); !ok {
			return nil, fmt.Errorf("simlint: unknown analyzer %q (use -list)", name)
		}
		selected[name] = true
	}
	cfg := lint.DefaultConfig()
	cfg.ReportStaleAllows = false
	loader := lint.NewLoader(cfg.ModulePath, root)
	pkgs, err := loader.LoadTree()
	if err != nil {
		return nil, err
	}
	return lint.Run(pkgs, nil, cfg, func(pkgPath string) []*lint.Analyzer {
		var active []*lint.Analyzer
		for _, a := range lint.AnalyzersFor(cfg, pkgPath) {
			if selected[a.Name] {
				active = append(active, a)
			}
		}
		return active
	}), nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("simlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
