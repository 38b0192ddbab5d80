// Package analysistest runs an analyzer over golden fixture packages and
// checks its diagnostics against `// want "regex"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest for the in-tree framework.
//
// Fixtures live under the calling package's testdata/src/<pkgpath>/*.go. Packages are loaded in
// the order given, so a fixture that imports another lists its dependency
// first. Imports outside the fixture set are resolved from real export data
// via the go tool, so fixtures may use the standard library freely.
//
// A want comment is a trailing `// want "re"` (or backquoted) on the line
// the diagnostic is expected; multiple expectations chain: // want "a" "b".
// Every diagnostic must match a want on its line and every want must be
// matched, including findings of the "directive" pseudo-analyzer — that is
// how the suppression fixtures assert that a reasonless //eris:allow* is
// itself reported.
package analysistest

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"eris/internal/analysis"
)

// Run loads the fixture packages and checks a's diagnostics against the
// fixtures' want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()

	fset := token.NewFileSet()
	type fixture struct {
		path  string
		dir   string
		files []*ast.File
	}

	fixtures := make([]*fixture, 0, len(pkgpaths))
	imports := map[string]bool{}
	for _, path := range pkgpaths {
		fx := &fixture{path: path, dir: filepath.Join("testdata", "src", filepath.FromSlash(path))}
		entries, err := os.ReadDir(fx.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := analysis.ParseFiles(fset, fx.dir, []string{e.Name()})
			if err != nil {
				t.Fatal(err)
			}
			fx.files = append(fx.files, f...)
			for _, file := range f {
				for _, imp := range file.Imports {
					p, _ := strconv.Unquote(imp.Path.Value)
					imports[p] = true
				}
			}
		}
		fixtures = append(fixtures, fx)
	}

	// Resolve non-fixture imports (stdlib) from real export data.
	for _, fx := range fixtures {
		delete(imports, fx.path)
	}
	var external []string
	for p := range imports {
		external = append(external, p)
	}
	sort.Strings(external)
	root := moduleRoot(t)
	exports, err := analysis.GoListExports(root, external...)
	if err != nil {
		t.Fatal(err)
	}

	local := map[string]*types.Package{}
	imp := analysis.NewImporter(fset, exports, local)
	var pkgs []*analysis.Package
	for _, fx := range fixtures {
		tpkg, info, err := analysis.TypeCheck(fset, fx.path, fx.files, imp)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", fx.path, err)
		}
		local[fx.path] = tpkg
		pkgs = append(pkgs, &analysis.Package{
			Path:  fx.path,
			Name:  tpkg.Name(),
			Dir:   fx.dir,
			Files: fx.files,
			Types: tpkg,
			Info:  info,
		})
	}

	diags, err := analysis.Run(&analysis.Module{Fset: fset, Pkgs: pkgs}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, fset, pkgs)
	for _, d := range diags {
		key := posKey{file: d.Pos.Filename, line: d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// wantPattern extracts the quoted expectations of one want comment. Both
// comment forms are supported; the block form (/* want "re" */) is how a
// fixture attaches an expectation to a line that ends in an //eris:
// directive, which a trailing line comment could not follow.
var wantPattern = regexp.MustCompile(`(?://|/\*)\s*want\s+(.*)$`)

// collectWants scans every fixture file for want comments, keyed by the
// line they annotate.
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*analysis.Package) map[posKey][]*want {
	t.Helper()
	out := map[posKey][]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantPattern.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					key := posKey{file: pos.Filename, line: pos.Line}
					expect := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(m[1]), "*/"))
					for _, raw := range splitQuoted(t, pos, expect) {
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
						}
						out[key] = append(out[key], &want{re: re})
					}
				}
			}
		}
	}
	return out
}

// splitQuoted parses a sequence of Go-quoted strings ("..." or `...`).
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var end int
		switch s[0] {
		case '"':
			end = 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
		case '`':
			end = 1 + strings.IndexByte(s[1:], '`')
		default:
			t.Fatalf("%s: malformed want comment near %q", pos, s)
		}
		if end <= 0 || end >= len(s) {
			t.Fatalf("%s: unterminated want string in %q", pos, s)
		}
		raw, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s: bad want string %q: %v", pos, s[:end+1], err)
		}
		out = append(out, raw)
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}

// moduleRoot walks up from the working directory to the go.mod, which is
// where the go tool resolves stdlib export data from.
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
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}
