package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, parsed, and typechecked package ready for analysis.
// Only packages inside the module under analysis carry syntax and type info;
// dependencies (stdlib) are typechecked just deeply enough to supply their
// exported type surfaces.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// Errors holds loader or typecheck problems; analysis proceeds
	// best-effort over whatever typechecked.
	Errors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load resolves patterns with `go list -deps` from dir, parses every package
// in the dependency closure, and typechecks them in dependency order with a
// purely stdlib driver (go/parser + go/types). It returns the module's own
// packages — the analyzable set — in deterministic import-path order.
// Standard-library dependencies are typechecked from GOROOT source so the
// module packages see real types for context.Context, sync.Pool, and friends.
func Load(dir string, patterns ...string) ([]*Package, error) {
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*listPkg, len(metas))
	for _, m := range metas {
		byPath[m.ImportPath] = m
	}

	fset := token.NewFileSet()
	ld := &loadState{
		fset:   fset,
		byPath: byPath,
		typed:  make(map[string]*types.Package),
		failed: make(map[string]error),
		// The source importer resolves any stdlib package the go list
		// closure missed (e.g. imports reached only through build-tagged
		// files) without leaving the stdlib driver.
		fallback: importer.ForCompiler(fset, "source", nil),
	}

	var out []*Package
	for _, m := range metas {
		if m.Standard || m.Module == nil {
			continue // dependencies are typechecked on demand via Import
		}
		pkg := ld.analyzePackage(m)
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// goList shells out to the go command for package metadata; it is the one
// piece of the toolchain the driver leans on (module resolution), keeping the
// loader itself dependency-free.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var metas []*listPkg
	for dec.More() {
		m := new(listPkg)
		if err := dec.Decode(m); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}

type loadState struct {
	fset     *token.FileSet
	byPath   map[string]*listPkg
	typed    map[string]*types.Package
	failed   map[string]error
	fallback types.Importer
	// stack guards against import cycles (go list would have reported them,
	// but -e keeps going).
	stack []string
}

// analyzePackage parses and typechecks one module package with full
// types.Info recording.
func (ld *loadState) analyzePackage(m *listPkg) *Package {
	pkg := &Package{ImportPath: m.ImportPath, Dir: m.Dir, Fset: ld.fset}
	if m.Error != nil {
		pkg.Errors = append(pkg.Errors, fmt.Errorf("%s", m.Error.Err))
	}
	files, errs := ld.parseFiles(m)
	pkg.Files = files
	pkg.Errors = append(pkg.Errors, errs...)
	if len(files) == 0 {
		return pkg
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	cfg := &types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			return ld.importPath(path, m)
		}),
		Error: func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, _ := cfg.Check(m.ImportPath, ld.fset, files, info)
	pkg.Types = tpkg
	pkg.Info = info
	ld.typed[m.ImportPath] = tpkg
	return pkg
}

// importPath supplies the type surface for one import: already-typechecked
// packages are reused; module-internal dependencies are typechecked through
// the same driver; everything else (stdlib) goes through the GOROOT source
// importer.
func (ld *loadState) importPath(path string, from *listPkg) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if from != nil && from.ImportMap != nil {
		if mapped, ok := from.ImportMap[path]; ok {
			path = mapped
		}
	}
	if tp, ok := ld.typed[path]; ok && tp != nil {
		return tp, nil
	}
	if err, ok := ld.failed[path]; ok {
		return nil, err
	}
	for _, s := range ld.stack {
		if s == path {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
	}
	m := ld.byPath[path]
	if m == nil || m.Standard || m.Module == nil {
		tp, err := ld.fallback.Import(path)
		if err != nil {
			ld.failed[path] = err
			return nil, err
		}
		ld.typed[path] = tp
		return tp, nil
	}
	ld.stack = append(ld.stack, path)
	defer func() { ld.stack = ld.stack[:len(ld.stack)-1] }()
	files, errs := ld.parseFiles(m)
	if len(files) == 0 {
		err := fmt.Errorf("analysis: no parseable files in %s: %v", path, errs)
		ld.failed[path] = err
		return nil, err
	}
	cfg := &types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			return ld.importPath(p, m)
		}),
	}
	tp, err := cfg.Check(m.ImportPath, ld.fset, files, nil)
	if err != nil && tp == nil {
		ld.failed[path] = err
		return nil, err
	}
	ld.typed[path] = tp
	return tp, nil
}

// parseFiles parses a package's compiled Go files with comments retained.
func (ld *loadState) parseFiles(m *listPkg) ([]*ast.File, []error) {
	var files []*ast.File
	var errs []error
	for _, name := range m.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(m.Dir, name)
		}
		f, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		files = append(files, f)
	}
	return files, errs
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
