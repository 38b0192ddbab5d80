package eris

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignDocReferences keeps DESIGN.md, EXPERIMENTS.md and README.md
// honest about the code they cite: every Test, Fuzz and Benchmark function
// they name must be defined in a _test.go file of the repository (a
// trailing * cites every name with that prefix, and one must exist), and
// every internal/... path must exist. A path followed by .Ident
// (internal/routing.Outbox) names the package.
func TestDesignDocReferences(t *testing.T) {
	defined := map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*\*?`)
	pathRE := regexp.MustCompile(`\binternal/[a-z0-9_]+(?:/[a-z0-9_]+)*(?:\.(?:go|s)\b)?`)
	for _, file := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		names := nameRE.FindAllString(string(doc), -1)
		if file == "DESIGN.md" && len(names) == 0 {
			t.Fatal("DESIGN.md cites no test; the pattern is broken")
		}
		for _, name := range names {
			found := defined[name]
			if prefix, ok := strings.CutSuffix(name, "*"); ok {
				for d := range defined {
					found = found || strings.HasPrefix(d, prefix)
				}
			}
			if !found {
				t.Errorf("%s cites %s, which no _test.go file defines", file, name)
			}
		}
		for _, p := range pathRE.FindAllString(string(doc), -1) {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s cites %s, which does not exist", file, p)
			}
		}
	}
}
