package faults

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryKindArmedByName asserts that each injectable fault kind is named
// by at least one test in the module. The chaos sweeps iterate Kinds(), so a
// newly added kind gets runtime coverage for free — but dynamic coverage
// leaves no test to read when the kind's semantics change, and nothing fails
// if the sweep starts skipping it. This meta-test forces every kind to have
// an owner: a test that arms it by name.
func TestEveryKindArmedByName(t *testing.T) {
	kinds := kindConstNames(t)
	if len(kinds) == 0 {
		t.Fatal("no exported Kind constants found in package faults")
	}

	mentioned := map[string]bool{}
	root := moduleRoot(t)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") || filepath.Base(path) == "armed_test.go" {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentioned[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range kinds {
		if !mentioned[k] {
			t.Errorf("fault kind %s is never armed by name in any test; add a focused test that arms faults.%s and asserts its fail-soft contract", k, k)
		}
	}
}

// kindConstNames parses this package's sources for the exported constants
// of type Kind, so the test tracks the declaration instead of a hand-kept
// list.
func kindConstNames(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "faults.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		inKindBlock := false
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); ok {
				inKindBlock = id.Name == "Kind"
			}
			if !inKindBlock {
				continue
			}
			for _, n := range vs.Names {
				if n.IsExported() {
					names = append(names, n.Name)
				}
			}
		}
	}
	return names
}

// moduleRoot walks up from the package directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above package directory")
		}
		dir = parent
	}
}
