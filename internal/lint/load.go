package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// The standard library is type-checked from source once per process:
// it is most of a load's cost and the same for every module, so every
// Module shares one source importer and the FileSet it parses into.
// The source importer is not safe for concurrent use; stdMu guards it.
var (
	stdFset = token.NewFileSet()
	stdMu   sync.Mutex
	stdImp  = importer.ForCompiler(stdFset, "source", nil)
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path the package was checked under.
	Path string
	// Dir is the directory holding the sources.
	Dir string
	// Fset is the file set shared by the whole load.
	Fset *token.FileSet
	// Files are the parsed sources (test files only when requested).
	Files []*ast.File
	// Types is the checked package (possibly incomplete on type errors).
	Types *types.Package
	// Info holds the expression types the analyzers consult.
	Info *types.Info
	// TypeErrors collects soft type-checking failures; analyzers run
	// regardless, on whatever was resolved.
	TypeErrors []error
}

// Module loads packages of one Go module for analysis. Imports inside
// the module resolve by directory; imports outside it (the standard
// library) resolve through the stdlib source importer. No go/build
// module machinery and no subprocesses are involved.
type Module struct {
	// Root is the directory containing go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset is shared by every package in the load, and by the
	// standard library packages every load imports.
	Fset *token.FileSet

	cache   map[string]*Package // keyed by import path, non-test loads only
	loading map[string]bool
}

// LoadModule prepares a loader for the module rooted at root.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: module root: %w", err)
	}
	path := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			path = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if path == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	return &Module{
		Root:    root,
		Path:    path,
		Fset:    stdFset,
		cache:   map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// FindRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import resolves an import path for the type checker: module-internal
// paths load from disk, "unsafe" maps to the unsafe package, and
// everything else (the standard library) goes to the shared source
// importer.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := m.dirFor(path); ok {
		p, err := m.loadCached(dir, path)
		if p == nil {
			return nil, err
		}
		return p.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImp.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (m *Module) dirFor(path string) (string, bool) {
	if path == m.Path {
		return m.Root, true
	}
	if rest, ok := strings.CutPrefix(path, m.Path+"/"); ok {
		return filepath.Join(m.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// loadCached loads a package once per import path (without test files,
// as an importer must).
func (m *Module) loadCached(dir, path string) (*Package, error) {
	if p, ok := m.cache[path]; ok {
		return p, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)
	p, err := m.LoadDir(dir, path, false)
	if err != nil {
		return nil, err
	}
	m.cache[path] = p
	return p, nil
}

// LoadDir parses and type-checks the package in dir under the import
// path asPath. With includeTests, in-package _test.go files are merged
// in (external foo_test packages are skipped). Type errors are soft:
// they accumulate in Package.TypeErrors and analysis proceeds on what
// resolved.
func (m *Module) LoadDir(dir, asPath string, includeTests bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var pkgName string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		test := strings.HasSuffix(name, "_test.go")
		if test && !includeTests {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !test {
			if pkgName == "" {
				pkgName = f.Name.Name
			}
			files = append(files, f)
		}
	}
	if includeTests {
		// Second pass so pkgName is known: keep only in-package tests.
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
				continue
			}
			f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			if pkgName == "" {
				pkgName = f.Name.Name
			}
			if f.Name.Name == pkgName {
				files = append(files, f)
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	p := &Package{
		Path: asPath,
		Dir:  dir,
		Fset: m.Fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{
		Importer: m,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	// Check returns a (possibly incomplete) package even on errors; the
	// error itself is already in TypeErrors.
	tpkg, _ := conf.Check(asPath, m.Fset, files, p.Info)
	p.Types = tpkg
	p.Files = files
	return p, nil
}

// Load resolves go-tool-style package patterns against the module and
// loads every match without test files (no default rule applies to
// _test.go sources; use LoadDir to analyze them). Supported patterns:
// "./..." for the whole module, "./dir/..." for a subtree, and "./dir"
// (or "dir") for one package directory.
func (m *Module) Load(patterns ...string) ([]*Package, error) {
	seen := map[string]bool{}
	var pkgs []*Package
	for _, pat := range patterns {
		dirs, err := m.match(pat)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			if seen[dir] {
				continue
			}
			seen[dir] = true
			rel, err := filepath.Rel(m.Root, dir)
			if err != nil {
				return nil, err
			}
			path := m.Path
			if rel != "." {
				path = m.Path + "/" + filepath.ToSlash(rel)
			}
			p, err := m.loadCached(dir, path)
			if err != nil {
				return nil, fmt.Errorf("lint: %s: %w", path, err)
			}
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// match expands one pattern into package directories.
func (m *Module) match(pat string) ([]string, error) {
	recursive := false
	switch {
	case pat == "..." || pat == "./...":
		pat, recursive = ".", true
	case strings.HasSuffix(pat, "/..."):
		pat, recursive = strings.TrimSuffix(pat, "/..."), true
	}
	base := filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
	if !recursive {
		if hasGoFiles(base) {
			return []string{base}, nil
		}
		return nil, fmt.Errorf("lint: no Go package in %s", base)
	}
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// hasGoFiles reports whether dir directly contains a non-test .go
// file (test-only directories are not loadable packages here).
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}
