// Package loopblock enforces the single-writer design rule: no blocking
// operation may be reachable from an AEU loop body. Functions whose doc
// comment carries //eris:loop are roots; the analyzer builds a static call
// graph over the module (direct calls and concrete method calls — interface
// dispatch and function values are out of reach, and go-statement targets
// run on their own goroutine so they are excluded) and flags, in every
// reachable function:
//
//   - bare channel sends and receives outside a select
//   - select statements without a default case — one finding at the select
//     for all of its arms, so one suppression covers the statement
//   - time.Sleep
//   - file I/O: os package calls that open/read/write files, and methods on
//     *os.File
//   - Lock/RLock on sync.Mutex/RWMutex, sync.WaitGroup.Wait, sync.Cond.Wait
//
// Suppress a finding with //eris:allowblock <reason> — e.g. a deliberately
// modeled backpressure stall, or a mutex with a provably bounded critical
// section.
package loopblock

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"eris/internal/analysis"
)

// Analyzer is the loopblock analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "loopblock",
	Doc:  "forbids blocking operations reachable from //eris:loop roots",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	funcs := analysis.ModuleFuncs(pass.All)
	roots := analysis.MarkedFuncs(pass.Fset, pass.All, "loop")

	// Static call graph: caller key -> callee keys (module functions only).
	edges := map[string][]string{}
	for key, fi := range funcs {
		if fi.Decl.Body == nil {
			continue
		}
		goCalls := goStmtCalls(fi.Decl.Body)
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || goCalls[call] {
				return true
			}
			callee := analysis.StaticCallee(fi.Pkg.Info, call)
			if callee == nil || !analysis.InModule(pass.All, callee) {
				return true
			}
			edges[key] = append(edges[key], analysis.Key(callee))
			return true
		})
	}

	// BFS from the roots, remembering one shortest call chain per function
	// for the diagnostic.
	parent := map[string]string{}
	reachable := map[string]bool{}
	var queue []string
	for key := range roots {
		reachable[key] = true
		queue = append(queue, key)
	}
	sort.Strings(queue)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range edges[cur] {
			if reachable[next] {
				continue
			}
			reachable[next] = true
			parent[next] = cur
			queue = append(queue, next)
		}
	}

	for key, fi := range funcs {
		if !reachable[key] || fi.Decl.Body == nil {
			continue
		}
		checkBody(pass, fi, chain(parent, roots, key))
	}
	return nil
}

// chain renders the call path root -> ... -> key for diagnostics.
func chain(parent map[string]string, roots map[string]bool, key string) string {
	var path []string
	for cur := key; ; cur = parent[cur] {
		path = append(path, shortName(cur))
		if roots[cur] {
			break
		}
		if _, ok := parent[cur]; !ok {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	if len(path) > 6 {
		path = append(path[:3], append([]string{"..."}, path[len(path)-2:]...)...)
	}
	return strings.Join(path, " -> ")
}

// shortName trims the package path from a function key, keeping pkg.Func
// (and the receiver parenthesis for methods: "(*aeu.AEU).Run").
func shortName(key string) string {
	lead := ""
	rest := key
	for _, p := range []string{"(*", "("} {
		if strings.HasPrefix(rest, p) {
			lead, rest = p, rest[len(p):]
			break
		}
	}
	if i := strings.LastIndex(rest, "/"); i >= 0 {
		rest = rest[i+1:]
	}
	return lead + rest
}

// goStmtCalls collects the call expressions launched by go statements in
// body: they run on their own goroutine and are excluded from loop
// reachability.
func goStmtCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			out[g.Call] = true
		}
		return true
	})
	return out
}

// checkBody flags blocking operations in one reachable function.
func checkBody(pass *analysis.Pass, fi *analysis.FuncInfo, via string) {
	pkg := fi.Pkg
	info := pkg.Info

	// Channel operations in a select's comm clauses are never findings of
	// their own: with a default case the select does not block, without one
	// the select itself is the finding. Collect them first.
	allowed := map[ast.Node]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				allowed[sel] = true // default case: non-blocking
				continue
			}
			// The comm statement wraps the channel op expression.
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				switch m.(type) {
				case *ast.UnaryExpr, *ast.SendStmt:
					allowed[m] = true
				}
				return true
			})
		}
		return true
	})

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Synchronously invoked closures (scan callbacks) still run on
			// the loop goroutine: keep descending.
			return true
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // spawned goroutine may block on its own time
		case *ast.SelectStmt:
			if !allowed[n] {
				pass.Reportf(pkg, n.Pos(), "blocking select (no default case) reachable from loop: %s", via)
			}
		case *ast.SendStmt:
			if !allowed[n] {
				pass.Reportf(pkg, n.Pos(), "blocking channel send reachable from loop: %s", via)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !allowed[n] {
				pass.Reportf(pkg, n.Pos(), "blocking channel receive reachable from loop: %s", via)
			}
		case *ast.CallExpr:
			if msg := blockingCall(info, n); msg != "" {
				pass.Reportf(pkg, n.Pos(), "%s reachable from loop: %s", msg, via)
			}
		}
		return true
	})
}

// blockingCall classifies a call as a blocking operation, returning a
// description or "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := analysis.StaticCallee(info, call)
	if fn == nil {
		return ""
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			recv = named.Obj().Pkg().Path() + "." + named.Obj().Name()
		}
	}
	switch {
	case pkgPath == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case recv == "sync.Mutex" && fn.Name() == "Lock",
		recv == "sync.RWMutex" && (fn.Name() == "Lock" || fn.Name() == "RLock"):
		return "mutex " + fn.Name() + " on a shared type"
	case recv == "sync.WaitGroup" && fn.Name() == "Wait":
		return "sync.WaitGroup.Wait"
	case recv == "sync.Cond" && fn.Name() == "Wait":
		return "sync.Cond.Wait"
	case recv == "os.File":
		switch fn.Name() {
		case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync", "Close", "Seek", "Truncate":
			return "file I/O (os.File." + fn.Name() + ")"
		}
	case pkgPath == "os":
		switch fn.Name() {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "ReadDir", "Stat":
			return "file I/O (os." + fn.Name() + ")"
		}
	}
	return ""
}
