package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //eris: directive grammar (see DESIGN.md "Static invariant
// enforcement"):
//
//	//eris:hotpath
//	    marks a function as data-hot-path in its doc comment: the hotpath
//	    analyzer forbids allocating constructs inside it and requires every
//	    in-module callee to be marked too.
//	//eris:loop
//	    marks a function as a single-writer loop root: the loopblock
//	    analyzer forbids blocking operations in everything reachable from
//	    it.
//	//eris:allowalloc <reason>
//	//eris:allowblock <reason>
//	    suppress one analyzer's findings (hotpath and loopblock
//	    respectively) on the directive's own line, or on the line directly
//	    below when the directive stands alone. The reason is mandatory: a
//	    suppression without one does not suppress and is itself reported.
//
// Any other //eris: verb is reported as an unknown directive.
const directivePrefix = "//eris:"

// markerVerbs are function-level markers (no arguments, doc comment only).
var markerVerbs = map[string]bool{
	"hotpath": true,
	"loop":    true,
}

// allowVerbs maps each analyzer to its line-level suppression verb.
var allowVerbs = map[string]string{
	"hotpath":   "allowalloc",
	"loopblock": "allowblock",
}

func isAllowVerb(verb string) bool {
	for _, v := range allowVerbs {
		if v == verb {
			return true
		}
	}
	return false
}

// directive is one parsed //eris: comment.
type directive struct {
	verb   string
	reason string
	pos    token.Pos
	// ownLine is true when the comment is the only thing on its line, so
	// the suppression applies to the following line.
	ownLine bool
}

// fileDirectives indexes one file's directives by line.
type fileDirectives struct {
	byLine map[int][]directive
	bad    []Diagnostic
}

// parseDirectives scans every comment of file for //eris: directives.
func parseDirectives(fset *token.FileSet, file *ast.File) *fileDirectives {
	fd := &fileDirectives{byLine: map[int][]directive{}}
	// lineHasCode marks lines carrying non-comment tokens, to tell a
	// trailing directive (applies to its own line) from a standalone one
	// (applies to the next line).
	lineHasCode := map[int]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup, nil:
			return false
		}
		lineHasCode[fset.Position(n.Pos()).Line] = true
		return true
	})
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, directivePrefix)
			verb, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			pos := fset.Position(c.Pos())
			d := directive{verb: verb, reason: reason, pos: c.Pos(), ownLine: !lineHasCode[pos.Line]}
			switch {
			case markerVerbs[verb]:
				if reason != "" {
					fd.bad = append(fd.bad, Diagnostic{
						Analyzer: "directive", Pos: pos,
						Message: "//eris:" + verb + " takes no arguments",
					})
				}
			case isAllowVerb(verb):
				if reason == "" {
					fd.bad = append(fd.bad, Diagnostic{
						Analyzer: "directive", Pos: pos,
						Message: "//eris:" + verb + " requires a reason (//eris:" + verb + " <why this is safe>)",
					})
					continue // an unexplained suppression does not suppress
				}
			default:
				fd.bad = append(fd.bad, Diagnostic{
					Analyzer: "directive", Pos: pos,
					Message: "unknown directive //eris:" + verb,
				})
				continue
			}
			fd.byLine[pos.Line] = append(fd.byLine[pos.Line], d)
		}
	}
	return fd
}

// ensureDirectives lazily builds the directive index for every file.
func (p *Package) ensureDirectives(fset *token.FileSet) {
	if p.directives != nil {
		return
	}
	p.directives = make(map[*ast.File]*fileDirectives, len(p.Files))
	for _, f := range p.Files {
		p.directives[f] = parseDirectives(fset, f)
	}
}

// directiveDiagnostics returns the package's malformed-directive findings.
func (p *Package) directiveDiagnostics(fset *token.FileSet) []Diagnostic {
	p.ensureDirectives(fset)
	var out []Diagnostic
	for _, f := range p.Files {
		out = append(out, p.directives[f].bad...)
	}
	return out
}

// suppressed reports whether a finding at pos is muted by an //eris:<verb>
// directive on the same line, or standing alone on the line above.
func (p *Package) suppressed(fset *token.FileSet, pos token.Pos, verb string) bool {
	p.ensureDirectives(fset)
	file := fset.File(pos)
	if file == nil {
		return false
	}
	line := fset.Position(pos).Line
	for _, f := range p.Files {
		tf := fset.File(f.Package)
		if tf == nil || tf.Name() != file.Name() {
			continue
		}
		fd := p.directives[f]
		for _, d := range fd.byLine[line] {
			if d.verb == verb {
				return true
			}
		}
		for _, d := range fd.byLine[line-1] {
			if d.verb == verb && d.ownLine {
				return true
			}
		}
	}
	return false
}

// FuncMarked reports whether decl carries the //eris:<verb> marker in its
// doc comment.
func (p *Package) FuncMarked(fset *token.FileSet, decl *ast.FuncDecl, verb string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(c.Text, directivePrefix+verb) {
			rest := strings.TrimPrefix(c.Text, directivePrefix+verb)
			if rest == "" || strings.HasPrefix(rest, " ") {
				return true
			}
		}
	}
	return false
}
