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
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Module is the loaded view of the repository: every source package of the
// requested patterns, parsed and type-checked against dependency export
// data. The analysistest harness builds one directly from fixture packages
// that are not part of any real module.
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
}

// goList runs `go list -deps -export -json` for patterns inside dir. The
// -export flag makes the go tool compile (or reuse from the build cache)
// export data for every listed package, which is what lets the loader
// type-check source packages without resolving their dependencies from
// source.
func goList(dir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Standard",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// GoListExports returns import path -> export data file for patterns and
// all of their dependencies, resolved by the go tool inside dir.
func GoListExports(dir string, patterns ...string) (map[string]string, error) {
	if len(patterns) == 0 {
		return map[string]string{}, nil
	}
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// exportImporter resolves imports from export data files, preferring
// already source-checked local packages (analysistest fixtures chain their
// own packages in front of it).
type exportImporter struct {
	local map[string]*types.Package
	gc    types.ImporterFrom
}

// NewImporter builds a types importer that resolves local (pre-checked)
// packages first and everything else from the export data files in
// exports.
func NewImporter(fset *token.FileSet, exports map[string]string, local map[string]*types.Package) types.ImporterFrom {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}).(types.ImporterFrom)
	return &exportImporter{local: local, gc: gc}
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.ImportFrom(path, "", 0)
}

func (ei *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := ei.local[path]; ok {
		return p, nil
	}
	return ei.gc.ImportFrom(path, dir, mode)
}

// TypeCheck parses nothing and checks the given files as one package.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var errs []error
	cfg := &types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := cfg.Check(path, fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, err := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, err.Error())
		}
		return tpkg, info, fmt.Errorf("type errors in %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return tpkg, info, nil
}

// ParseFiles parses the named files (relative to dir) with comments.
func ParseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadModule loads and type-checks the packages matching patterns from the
// module rooted at or above dir.
func LoadModule(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := NewImporter(fset, exports, nil)
	m := &Module{Fset: fset}
	var errs []string
	for _, t := range targets {
		files, err := ParseFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", t.ImportPath, err)
		}
		tpkg, info, err := TypeCheck(fset, t.ImportPath, files, imp)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		m.Pkgs = append(m.Pkgs, &Package{
			Path:  t.ImportPath,
			Name:  t.Name,
			Dir:   t.Dir,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return m, nil
}
