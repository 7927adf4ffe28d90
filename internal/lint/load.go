package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/sim").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset positions every file in the loader's shared file set.
	Fset *token.FileSet
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the use/def/type maps the analyzers consult.
	Info *types.Info
}

// Loader parses and type-checks packages without the go command. Module
// packages (ModulePath and below) are resolved to directories under
// ModuleRoot and type-checked from source; everything else (the standard
// library) is delegated to go/importer's source importer, which reads
// GOROOT. The loader is deliberately dependency-free so the lint suite
// works in hermetic build environments with no module cache.
//
// Loader is not safe for concurrent use.
type Loader struct {
	ModulePath string
	ModuleRoot string
	// Overlay maps extra import paths to directories; the analyzer tests
	// use it to mount testdata packages under synthetic import paths.
	Overlay map[string]string

	fset *token.FileSet
	pkgs map[string]*Package
	std  types.ImporterFrom
}

// NewLoader returns a loader rooted at moduleRoot for modulePath.
func NewLoader(modulePath, moduleRoot string) *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		ModulePath: modulePath,
		ModuleRoot: moduleRoot,
		fset:       fset,
		pkgs:       map[string]*Package{},
	}
	// The source importer type-checks the standard library from GOROOT
	// sources, so no compiled export data is required.
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l
}

// dirFor maps an import path to a source directory, or reports that the
// path is outside the loader's jurisdiction (i.e. standard library).
func (l *Loader) dirFor(path string) (string, bool) {
	if dir, ok := l.Overlay[path]; ok {
		return dir, true
	}
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if strings.HasPrefix(path, l.ModulePath+"/") {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/"))), true
	}
	// Overlay sub-packages: "maprange/sink" resolves under the overlay
	// root "maprange" when present.
	for p, dir := range l.Overlay {
		if strings.HasPrefix(path, p+"/") {
			return filepath.Join(dir, filepath.FromSlash(strings.TrimPrefix(path, p+"/"))), true
		}
	}
	return "", false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom, routing module/overlay paths
// to the source loader and everything else to the GOROOT source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// Load parses and type-checks the package at importPath.
func (l *Loader) Load(importPath string) (*Package, error) {
	dir, ok := l.dirFor(importPath)
	if !ok {
		return nil, fmt.Errorf("lint: import path %q is outside module %q", importPath, l.ModulePath)
	}
	return l.load(importPath, dir)
}

func (l *Loader) load(importPath, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %q", importPath)
		}
		return pkg, nil
	}
	l.pkgs[importPath] = nil // cycle guard

	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil && typeErr != nil {
		err = typeErr
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// LoadTree loads every package of the module: the root package plus each
// directory under it that contains non-test Go files. testdata trees and
// dot-directories are skipped, per go-tool convention.
func (l *Loader) LoadTree() ([]*Package, error) {
	var paths []string
	err := filepath.Walk(l.ModuleRoot, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if path != l.ModuleRoot && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test
// Go source file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
