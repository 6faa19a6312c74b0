// Loader: parses and type-checks the module's packages from source using
// only the standard library (go/parser + go/types + go/importer — no
// golang.org/x/tools dependency).
//
// Module-internal imports ("hcd/...") are resolved recursively from the
// source tree, honouring build constraints through go/build.
// Standard-library imports are resolved through compiled export data
// located with one `go list -export -deps` invocation per loader; the gc
// importer consumes the export files directly, so stdlib sources are
// never re-type-checked.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package (non-test files only —
// hcdlint polices library code; test files are exempt by design).
type Package struct {
	// Path is the import path ("hcd/internal/core").
	Path string
	// Dir is the absolute directory the files came from.
	Dir string
	// Files are the parsed non-test files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the use/def/type/selection maps for Files.
	Info *types.Info
}

// Loader loads packages of one module. Not safe for concurrent use
// (checks run sequentially).
type Loader struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Module is the module path from go.mod.
	Module string
	// Fset positions every file the loader parsed.
	Fset *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool // import-cycle guard
}

// NewLoader creates a loader rooted at the module containing dir. It
// runs `go list -export -deps` once to locate stdlib export data; the go
// toolchain must be on PATH (hcdlint itself is run with `go run`, so it
// always is).
func NewLoader(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	exports, err := stdExports(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			// A stdlib package outside the module's dependency closure
			// (possible for testdata fixtures): locate it on demand.
			ef, err := exportFile(root, path)
			if err != nil {
				return nil, err
			}
			exports[path] = ef
			f = ef
		}
		return os.Open(f)
	})
	return &Loader{
		Dir:     root,
		Module:  module,
		Fset:    fset,
		std:     std,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// stdExports maps every stdlib package in the module's dependency
// closure to its compiled export-data file.
func stdExports(root string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-e", "-deps",
		"-json=ImportPath,Export,Standard", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("lint: go list -export failed: %v\n%s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("lint: go list -export failed: %v", err)
	}
	exports := map[string]string{}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p struct {
			ImportPath string
			Export     string
			Standard   bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: parsing go list output: %v", err)
		}
		if p.Standard && p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// exportFile locates export data for a single package via go list.
func exportFile(root, path string) (string, error) {
	cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("lint: no export data for %q: %v", path, err)
	}
	f := strings.TrimSpace(string(out))
	if f == "" {
		return "", fmt.Errorf("lint: no export data for %q", path)
	}
	return f, nil
}

// Import implements types.Importer: module-internal paths load from
// source (recursively, cached), everything else from stdlib export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// pkgDir maps a module-internal import path to its directory.
func (l *Loader) pkgDir(path string) string {
	if path == l.Module {
		return l.Dir
	}
	return filepath.Join(l.Dir, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
}

// LoadDir loads the package in an arbitrary directory inside the module
// tree (including testdata directories the go tool itself ignores).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.Dir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.Dir)
	}
	path := l.Module
	if rel != "." {
		path = l.Module + "/" + filepath.ToSlash(rel)
	}
	return l.load(path)
}

// Load loads (or returns the cached) package for a module-internal
// import path.
func (l *Loader) Load(path string) (*Package, error) { return l.load(path) }

func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.pkgDir(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %v", dir, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
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
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tp, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// ModulePackages enumerates and loads every buildable package under the
// module root, skipping testdata, vendor, hidden and underscore
// directories. Returned in import-path order.
func (l *Loader) ModulePackages() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Dir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, fmt.Errorf("lint: %s: %v", dir, err)
		}
		if len(bp.GoFiles) == 0 {
			continue
		}
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
