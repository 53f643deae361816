// Package analysis is a self-contained, dependency-free re-implementation
// of the narrow slice of golang.org/x/tools/go/analysis that this project
// needs: named analyzers over a type-checked package, diagnostics with
// positions, and per-site suppression comments.
//
// It exists because the repo builds offline (no module proxy), so x/tools
// cannot be vendored; the surface is deliberately tiny and the driver in
// cmd/sqlarraylint speaks cmd/go's `-vettool` JSON protocol directly, which
// makes the suite usable as `go vet -vettool=$(which sqlarraylint) ./...`.
//
// Suppression convention (documented in ARCHITECTURE.md): a comment
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line, or on the line immediately above it, silences that
// analyzer at that site. The reason is mandatory; an allow comment without
// one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	Name string // short lowercase identifier, used in flags and suppressions
	Doc  string // one-line description shown by -flags usage
	Run  func(*Pass) error
}

// A Diagnostic is a single finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags   []Diagnostic
	allows  []allowSite
	badUses []Diagnostic // malformed //lint:allow comments
}

type allowSite struct {
	file     string
	line     int
	analyzer string
	used     bool
}

// NewPass assembles a Pass and indexes its suppression comments.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	p := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	p.collectAllows()
	return p
}

const allowPrefix = "//lint:allow "

func (p *Pass) collectAllows() {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				name, reason, _ := strings.Cut(rest, " ")
				pos := p.Fset.Position(c.Pos())
				if name == "" || strings.TrimSpace(reason) == "" {
					if p.Analyzer.Name == "lintdirective" {
						p.badUses = append(p.badUses, Diagnostic{
							Analyzer: "lintdirective",
							Pos:      c.Pos(),
							Message:  "//lint:allow needs an analyzer name and a reason: //lint:allow <analyzer> <reason>",
						})
					}
					continue
				}
				p.allows = append(p.allows, allowSite{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: name,
				})
			}
		}
	}
}

// suppressed reports whether an allow comment for this pass's analyzer
// covers the line of pos (same line or the line immediately above).
func (p *Pass) suppressed(pos token.Pos) bool {
	at := p.Fset.Position(pos)
	for i := range p.allows {
		a := &p.allows[i]
		if a.analyzer != p.Analyzer.Name || a.file != at.Filename {
			continue
		}
		if a.line == at.Line || a.line == at.Line-1 {
			a.used = true
			return true
		}
	}
	return false
}

// Reportf records a diagnostic unless a suppression covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings in file/line order.
func (p *Pass) Diagnostics() []Diagnostic {
	out := append(p.badUses, p.diags...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := p.Fset.Position(out[i].Pos), p.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return out
}

// ---- type-resolution helpers shared by the analyzers --------------------

// pkgPathMatches reports whether path is suffix itself or ends in
// "/"+suffix. Matching by suffix lets analyzer testdata use short mock
// package paths ("pages") while the real repo uses "sqlarray/internal/pages".
func pkgPathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return nil
		}
	}
}

// typeIs reports whether t (possibly behind pointers) is the named type
// pkgSuffix.typeName.
func typeIs(t types.Type, pkgSuffix, typeName string) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == typeName && pkgPathMatches(n.Obj().Pkg().Path(), pkgSuffix)
}

// unparen strips any number of parens around an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeMethod resolves a call expression to (receiver type, method name).
// It returns ok=false for calls that are not method calls on a named type
// (plain function calls, builtins, conversions, function values).
func calleeMethod(info *types.Info, call *ast.CallExpr) (recv types.Type, name string, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selInfo, found := info.Selections[sel]
	if !found {
		return nil, "", false // package-qualified call or conversion
	}
	if selInfo.Kind() != types.MethodVal {
		return nil, "", false
	}
	return selInfo.Recv(), sel.Sel.Name, true
}

// funcDeclObj returns the *types.Func for a declaration, or nil.
func funcDeclObj(info *types.Info, fd *ast.FuncDecl) *types.Func {
	if fd.Name == nil {
		return nil
	}
	if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
		return fn
	}
	return nil
}

// ---- registry ------------------------------------------------------------

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Pinleak,
		Latchorder,
		Atomicfield,
		Durasync,
		Ctxloop,
		Lintdirective,
	}
}

// Lintdirective validates the suppression comments themselves: every
// //lint:allow must name an analyzer and give a reason, and must name an
// analyzer that exists.
var Lintdirective = &Analyzer{
	Name: "lintdirective",
	Doc:  "check that //lint:allow comments are well-formed and name a real analyzer",
}

func init() { // assigned in init to avoid an initialization cycle via All
	Lintdirective.Run = func(p *Pass) error {
		known := map[string]bool{}
		for _, a := range All() {
			known[a.Name] = true
		}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
					name, reason, _ := strings.Cut(rest, " ")
					if name == "" || strings.TrimSpace(reason) == "" {
						continue // already queued by collectAllows
					}
					if !known[name] {
						p.Reportf(c.Pos(), "//lint:allow names unknown analyzer %q", name)
					}
				}
			}
		}
		return nil
	}
}
