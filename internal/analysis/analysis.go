// Package analysis is a self-contained static-analysis framework for the
// engine's own invariants: a miniature, dependency-free analogue of
// golang.org/x/tools/go/analysis. The build environment is hermetic (no
// module proxy), so instead of pinning x/tools this package loads and
// type-checks the module with nothing but the standard library: package
// metadata and dependency export data come from `go list -export -json`,
// syntax from go/parser, types from go/types with a lookup-based gc
// importer. The analyzer API mirrors the x/tools shape (Analyzer, Pass,
// Report) closely enough that the suite could be rebased onto the real
// framework by swapping this package out.
//
// What the suite enforces is the one rule of DESIGN.md that no runtime test
// can: an AEU is the single writer of its partitions, and its loop never
// blocks (loopblock) and never allocates on the data path (hotpath). See
// cmd/erisvet for the multichecker binary and DESIGN.md "Static invariant
// enforcement" for the directive grammar (//eris:hotpath, //eris:loop,
// //eris:allowalloc, //eris:allowblock).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one invariant checker. Run is invoked once per module view
// and walks Pass.All itself, which is how cross-package checks (call-graph
// reachability, callee annotations) see the whole engine at once.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer invocation's view of the code.
type Pass struct {
	Analyzer *Analyzer
	// All is every source-loaded package of the module, sorted by import
	// path; export-data-only dependencies are not listed.
	All  []*Package
	Fset *token.FileSet

	report func(Diagnostic)
}

// Package is one type-checked source package.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// directives is the per-file index of //eris: comment directives.
	directives map[*ast.File]*fileDirectives
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos. Findings suppressed by a matching
// //eris:allow* directive (with a reason) are dropped here, in one place,
// so every analyzer gets the same suppression semantics for free.
func (p *Pass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	if pkg.suppressed(p.Fset, pos, allowVerbs[p.Analyzer.Name]) {
		return
	}
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// Run executes analyzers over the module and returns the findings sorted by
// position. Malformed //eris: directives are reported as findings of the
// pseudo-analyzer "directive" regardless of which analyzers run.
func Run(m *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }

	for _, pkg := range m.Pkgs {
		diags = append(diags, pkg.directiveDiagnostics(m.Fset)...)
	}

	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, All: m.Pkgs, Fset: m.Fset, report: collect}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
