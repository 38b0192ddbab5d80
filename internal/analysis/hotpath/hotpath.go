// Package hotpath turns the DESIGN.md "Hot-path allocation contract" into a
// build-time check. A function whose doc comment carries //eris:hotpath must
// not contain allocating constructs and must not call unannotated in-module
// functions — so the annotation spreads along the data path and a new
// allocation anywhere under classify/apply/scan/Append fails the build
// instead of an AllocsPerRun spot check.
//
// Flagged constructs:
//
//   - make, new
//   - map/slice composite literals, and &T{...} (escaping struct literal)
//   - func literals (closure allocation)
//   - calls into fmt (Sprintf/Errorf format machinery allocates)
//   - string concatenation with +, and string<->[]byte/[]rune conversions
//   - append growing from nothing (first arg is nil or a composite literal);
//     amortized appends into reused scratch (append(x[:0], ...)) are fine
//   - go statements (goroutine spawn)
//   - calls to in-module functions not annotated //eris:hotpath
//
// Suppress a finding with //eris:allowalloc <reason> on the same line (or
// standing alone on the line above) — the reason is mandatory.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"eris/internal/analysis"
)

// Analyzer is the hotpath analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbids allocating constructs in //eris:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	marked := analysis.MarkedFuncs(pass.Fset, pass.All, "hotpath")
	for _, pkg := range pass.All {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !pkg.FuncMarked(pass.Fset, fd, "hotpath") {
					continue
				}
				check(pass, pkg, fd.Body, marked)
			}
		}
	}
	return nil
}

// check walks one hot-path function body. Nested func literals are flagged
// as closure allocations but not descended into: their bodies run under
// whatever context calls them.
func check(pass *analysis.Pass, pkg *analysis.Package, body *ast.BlockStmt, marked map[string]bool) {
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(pkg, n.Pos(), "hot path allocates: func literal (closure)")
			return false
		case *ast.GoStmt:
			pass.Reportf(pkg, n.Pos(), "hot path spawns a goroutine")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(pkg, n.Pos(), "hot path allocates: &composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			reportComposite(pass, pkg, info, n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info, n) {
				pass.Reportf(pkg, n.Pos(), "hot path allocates: string concatenation")
			}
		case *ast.CallExpr:
			checkCall(pass, pkg, n, marked)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, pkg *analysis.Package, call *ast.CallExpr, marked map[string]bool) {
	info := pkg.Info

	// Conversions: string([]byte), []byte(string), []rune(...) copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if convAllocates(info, call) {
			pass.Reportf(pkg, call.Pos(), "hot path allocates: %s conversion copies", types.TypeString(tv.Type, types.RelativeTo(pkg.Types)))
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				pass.Reportf(pkg, call.Pos(), "hot path allocates: make")
			case "new":
				pass.Reportf(pkg, call.Pos(), "hot path allocates: new")
			case "append":
				if len(call.Args) > 0 && appendFromNothing(call.Args[0]) {
					pass.Reportf(pkg, call.Pos(), "hot path allocates: append growing a fresh slice (reuse scratch: append(buf[:0], ...))")
				}
			}
			return
		}
	}

	fn := analysis.StaticCallee(info, call)
	if fn == nil {
		return // dynamic dispatch or function value: out of static reach
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt":
			pass.Reportf(pkg, call.Pos(), "hot path allocates: fmt.%s", fn.Name())
			return
		case "errors":
			pass.Reportf(pkg, call.Pos(), "hot path allocates: errors.%s", fn.Name())
			return
		}
	}
	if !analysis.InModule(pass.All, fn) {
		return // stdlib / export-data dependency: trusted
	}
	if !marked[analysis.Key(fn)] {
		pass.Reportf(pkg, call.Pos(), "hot path calls %s, which is not annotated //eris:hotpath", fn.FullName())
	}
}

// reportComposite flags map/slice literals always, and struct literals only
// when their address is taken (escaping heap allocation). A plain struct
// literal value stays on the stack.
func reportComposite(pass *analysis.Pass, pkg *analysis.Package, info *types.Info, lit *ast.CompositeLit) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		pass.Reportf(pkg, lit.Pos(), "hot path allocates: map literal")
	case *types.Slice:
		pass.Reportf(pkg, lit.Pos(), "hot path allocates: slice literal")
	}
}

// appendFromNothing reports whether the append base is nil or a fresh
// literal, i.e. the append cannot be amortized into reused capacity.
func appendFromNothing(base ast.Expr) bool {
	switch e := ast.Unparen(base).(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return true
	}
	return false
}

func isString(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// convAllocates reports whether a type conversion copies memory: anything
// between string and []byte/[]rune of non-constant operands.
func convAllocates(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	argTV, ok := info.Types[call.Args[0]]
	if !ok || argTV.Value != nil {
		return false // constant-folded: no runtime conversion
	}
	dstTV := info.Types[call.Fun]
	dst, src := dstTV.Type.Underlying(), argTV.Type.Underlying()
	return (isStringT(dst) && isByteRuneSlice(src)) || (isByteRuneSlice(dst) && isStringT(src))
}

func isStringT(t types.Type) bool {
	basic, ok := t.(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteRuneSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (basic.Kind() == types.Byte || basic.Kind() == types.Rune ||
		basic.Kind() == types.Uint8 || basic.Kind() == types.Int32)
}
