package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Pinleak verifies the engine's pin discipline: every buffer-pool pin or
// cursor acquisition must reach a release on all return paths, including
// error paths, unless the value escapes into a documented owner
// (returned to the caller, stored in a struct like Cursor, captured by a
// defer).
//
// The acquisition table below is matched by (package suffix, receiver
// type, method). For each local acquisition `v, err := acquire(...)` the
// analyzer walks the statements that follow, path-sensitively:
//
//   - a call taking v as an argument, or a Release/Close/Unpin method on
//     v, releases it (transfers responsibility);
//   - the then-branch of the first `if` testing the acquisition's fresh
//     err is the failure path, where v is nil and needs no release;
//   - a `return` reached while v is held is reported — this is exactly
//     the "early error return between Fetch and Unpin" leak class;
//   - falling off the end of the function while v is held is reported.
//
// Escapes make an acquisition exempt: v returned, stored into a field,
// slice or composite literal, aliased to another variable, address-taken,
// or referenced from a defer/go/closure (the defer IS the usual correct
// release). Loops are handled conservatively: a loop body that mentions v
// takes over responsibility (covering the iterator's unpin-then-refetch
// rotation), and an acquisition inside a loop body may rely on a release
// anywhere in that body.
var Pinleak = &Analyzer{
	Name: "pinleak",
	Doc:  "buffer-pool pins and cursors must be released on every path or escape to a documented owner",
	Run:  runPinleak,
}

// acquisitions: methods that hand back a pinned resource.
var pinAcquire = []struct {
	pkg, typ, method string
}{
	{"pages", "BufferPool", "Fetch"},
	{"pages", "BufferPool", "NewPage"},
	{"pages", "BufferPool", "FetchForWrite"},
	{"pages", "Snapshot", "Fetch"},
	{"pages", "Fetcher", "Fetch"}, // the interface every B+tree and blob read goes through
	{"engine", "Table", "CursorRangeAt"},
	{"btree", "Tree", "Scan"},
	{"btree", "Tree", "ScanFrom"},
	{"btree", "Tree", "ScanRange"},
}

// releaseMethods are methods on the pinned value itself that release it.
var releaseMethods = map[string]bool{"Unpin": true, "Release": true, "Close": true}

func isPinAcquire(info *types.Info, call *ast.CallExpr) (string, bool) {
	recv, name, ok := calleeMethod(info, call)
	if !ok {
		return "", false
	}
	for _, a := range pinAcquire {
		if name == a.method && typeIs(recv, a.pkg, a.typ) {
			return a.typ + "." + a.method, true
		}
	}
	return "", false
}

func runPinleak(p *Pass) error {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			runPinleakFunc(p, fd)
		}
	}
	return nil
}

// oneAcq is one tracked acquisition within a function.
type oneAcq struct {
	label  string       // "BufferPool.Fetch"
	v      types.Object // the pinned value's object (nil if blank)
	errObj types.Object // the paired err object (nil if none / blank)
	pos    token.Pos
}

func runPinleakFunc(p *Pass, fd *ast.FuncDecl) {
	info := p.TypesInfo

	// Collect acquisitions and flag outright discards.
	var acqs []*oneAcq
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := unparen(s.X).(*ast.CallExpr); ok {
				if label, ok := isPinAcquire(info, call); ok {
					p.Reportf(call.Pos(), "result of %s is discarded: the pin is acquired and immediately leaked", label)
				}
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 {
				return true
			}
			call, ok := unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			label, ok := isPinAcquire(info, call)
			if !ok {
				return true
			}
			a := &oneAcq{label: label, pos: call.Pos()}
			if len(s.Lhs) >= 1 {
				a.v = lhsObject(info, s.Lhs[0])
			}
			if len(s.Lhs) >= 2 {
				a.errObj = lhsObject(info, s.Lhs[1])
			}
			if a.v == nil {
				p.Reportf(call.Pos(), "result of %s assigned to _: the pin is acquired and immediately leaked", label)
				return true
			}
			acqs = append(acqs, a)
		}
		return true
	})

	for _, a := range acqs {
		checkAcquisition(p, fd, a)
	}
}

func lhsObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// usesObj reports whether n contains a direct identifier for obj.
func usesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isIdentFor reports whether e IS obj (possibly parenthesized or &obj).
func isIdentFor(info *types.Info, e ast.Expr, obj types.Object) bool {
	e = unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = unparen(ue.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && info.Uses[id] == obj
}

// calleeName returns the bare name of a call's function or method.
func calleeName(fun ast.Expr) string {
	switch f := unparen(fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// escapes reports whether v's ownership leaves the straight-line scope
// anywhere in the function: returned, stored, aliased, address-taken,
// placed in a composite literal, passed to a non-release call (ownership
// transfer to a btree helper, ...), or referenced from
// defer/go/closure.
func escapes(info *types.Info, body *ast.BlockStmt, a *oneAcq) bool {
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if !releaseMethods[calleeName(s.Fun)] {
				for _, arg := range s.Args {
					if isIdentFor(info, arg, a.v) {
						esc = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if usesObj(info, r, a.v) {
					esc = true
				}
			}
		case *ast.DeferStmt:
			if usesObj(info, s.Call, a.v) {
				esc = true // defer f.Release() — release on all exits
			}
		case *ast.GoStmt:
			if usesObj(info, s.Call, a.v) {
				esc = true
			}
		case *ast.FuncLit:
			if usesObj(info, s.Body, a.v) {
				esc = true
			}
			return false
		case *ast.CompositeLit:
			for _, el := range s.Elts {
				if usesObj(info, el, a.v) {
					esc = true
				}
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND && isIdentFor(info, s.X, a.v) {
				esc = true
			}
		case *ast.SendStmt:
			if usesObj(info, s.Value, a.v) {
				esc = true
			}
		case *ast.AssignStmt:
			// v on the RHS of an assignment aliases or stores it —
			// unless the RHS is a call (v passed to a call is a release,
			// handled by the path walk) or every target is the blank
			// identifier (`_ = f.Page` reads v, it creates no alias).
			if allBlank(s.Lhs) {
				return true
			}
			for _, r := range s.Rhs {
				if _, isCall := unparen(r).(*ast.CallExpr); isCall {
					continue
				}
				if usesObj(info, r, a.v) {
					esc = true
				}
			}
		}
		return !esc
	})
	return esc
}

// allBlank reports whether every assignment target is the blank
// identifier.
func allBlank(lhs []ast.Expr) bool {
	for _, l := range lhs {
		id, ok := unparen(l).(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// releasesHere reports whether n contains a release of v: a call to a
// method named Unpin/Release/Close taking v as an argument (bp.Unpin(f))
// or as its receiver (cur.Close()).
func releasesHere(info *types.Info, n ast.Node, a *oneAcq) bool {
	rel := false
	ast.Inspect(n, func(m ast.Node) bool {
		if rel {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !releaseMethods[calleeName(call.Fun)] {
			return true
		}
		for _, arg := range call.Args {
			if isIdentFor(info, arg, a.v) {
				rel = true
				return false
			}
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if isIdentFor(info, sel.X, a.v) {
				rel = true
				return false
			}
		}
		return true
	})
	return rel
}

// pathState is the per-path abstract state of one acquisition.
type pathState struct {
	held     bool
	errFresh bool // a.errObj still holds the acquisition's error
}

// checkAcquisition walks the statements that follow the acquisition.
func checkAcquisition(p *Pass, fd *ast.FuncDecl, a *oneAcq) {
	if escapes(p.TypesInfo, fd.Body, a) {
		return
	}

	// Locate the chain of blocks from the function body down to the
	// statement containing the acquisition.
	path := enclosingPath(fd.Body, a.pos)
	if path == nil {
		return
	}

	st := pathState{held: true, errFresh: a.errObj != nil}

	// Walk outward: remainder of the innermost block, then the parent
	// block after the enclosing statement, and so on.
	for level := len(path) - 1; level >= 0; level-- {
		blk := path[level].block
		idx := path[level].index
		heldOut, terminated := walkStmts(p, a, blk.List[idx+1:], &st)
		if terminated {
			return
		}
		if !heldOut {
			return
		}
		// Fell off the end of this block while held. A loop body that
		// releases v somewhere (the unpin-then-refetch rotation) is fine.
		if path[level].loop != nil {
			if releasesHere(p.TypesInfo, path[level].loop, a) {
				return
			}
			p.Reportf(a.pos, "%s pin is still held at the end of a loop iteration with no release in the loop; the next iteration leaks it", a.label)
			return
		}
	}
	p.Reportf(a.pos, "%s pin is not released on the fall-through path; add the release or a defer", a.label)
}

type pathStep struct {
	block *ast.BlockStmt
	index int      // index in block.List of the stmt containing pos
	loop  ast.Node // non-nil if block is the body of a for/range
}

// enclosingPath returns the block chain containing pos, innermost last.
func enclosingPath(body *ast.BlockStmt, pos token.Pos) []pathStep {
	var path []pathStep
	var find func(blk *ast.BlockStmt, loop ast.Node) bool
	find = func(blk *ast.BlockStmt, loop ast.Node) bool {
		for i, s := range blk.List {
			if s.Pos() <= pos && pos < s.End() {
				path = append(path, pathStep{block: blk, index: i, loop: loop})
				// Descend if the statement itself holds blocks.
				switch t := s.(type) {
				case *ast.BlockStmt:
					return find(t, nil)
				case *ast.IfStmt:
					if t.Body.Pos() <= pos && pos < t.Body.End() {
						return find(t.Body, nil)
					}
					if eb, ok := t.Else.(*ast.BlockStmt); ok && eb != nil && eb.Pos() <= pos && pos < eb.End() {
						return find(eb, nil)
					}
				case *ast.ForStmt:
					if t.Body.Pos() <= pos && pos < t.Body.End() {
						return find(t.Body, t)
					}
				case *ast.RangeStmt:
					if t.Body.Pos() <= pos && pos < t.Body.End() {
						return find(t.Body, t)
					}
				}
				return true
			}
		}
		return false
	}
	if !find(body, nil) {
		return nil
	}
	return path
}

// walkStmts interprets a statement list under state st. It reports leaks
// at returns. Returns (held at end, path definitely terminated).
func walkStmts(p *Pass, a *oneAcq, stmts []ast.Stmt, st *pathState) (bool, bool) {
	info := p.TypesInfo
	for _, s := range stmts {
		if !st.held {
			return false, false
		}
		switch t := s.(type) {
		case *ast.ReturnStmt:
			if st.held {
				p.Reportf(t.Pos(), "return leaks the %s pin acquired at line %d; release it before returning (or on the error path)",
					a.label, p.Fset.Position(a.pos).Line)
			}
			return st.held, true

		case *ast.AssignStmt:
			// Reassigning v while held leaks the old pin — unless the
			// same statement's RHS released it (not expressible here) or
			// the old value was released before; path walk handles order.
			for _, l := range t.Lhs {
				if isIdentFor(info, l, a.v) && st.held {
					if !releasesHere(info, t, a) {
						p.Reportf(t.Pos(), "%s pin from line %d is overwritten while still held",
							a.label, p.Fset.Position(a.pos).Line)
					}
					return false, false // stop tracking the old value
				}
				if a.errObj != nil && isIdentFor(info, l, a.errObj) {
					st.errFresh = false
				}
			}
			if releasesHere(info, t, a) {
				st.held = false
			}

		case *ast.ExprStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
			if releasesHere(info, s, a) {
				st.held = false
			}

		case *ast.DeferStmt, *ast.GoStmt:
			if releasesHere(info, s, a) {
				st.held = false
			}

		case *ast.BlockStmt:
			heldOut, term := walkStmts(p, a, t.List, st)
			if term {
				return heldOut, true
			}
			st.held = heldOut

		case *ast.IfStmt:
			heldOut, term := walkIf(p, a, t, st)
			if term {
				return heldOut, true
			}
			st.held = heldOut

		case *ast.ForStmt, *ast.RangeStmt:
			// Loops are opaque: if the loop mentions v at all, it has
			// taken over responsibility for the pin.
			if usesObj(info, s, a.v) {
				st.held = false
			}

		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Conservative: a release inside any case ends tracking
			// (pessimistic paths through switches are rare in this
			// codebase's pin code).
			if releasesHere(info, s, a) {
				st.held = false
			}

		case *ast.LabeledStmt:
			heldOut, term := walkStmts(p, a, []ast.Stmt{t.Stmt}, st)
			if term {
				return heldOut, true
			}
			st.held = heldOut

		case *ast.BranchStmt:
			// break/continue/goto: give up tracking this path.
			return st.held, true
		}
	}
	return st.held, false
}

// walkIf handles the error-guard special case and branch merging.
func walkIf(p *Pass, a *oneAcq, t *ast.IfStmt, st *pathState) (bool, bool) {
	info := p.TypesInfo

	// `if err != nil` testing the acquisition's fresh err: on that path
	// the acquisition failed and v is nil — walk the then-branch unheld.
	errGuard := st.errFresh && a.errObj != nil && usesObj(info, t.Cond, a.errObj)

	thenSt := pathState{held: st.held && !errGuard, errFresh: st.errFresh}
	thenHeld, thenTerm := walkStmts(p, a, t.Body.List, &thenSt)

	elseHeld, elseTerm := st.held, false
	switch eb := t.Else.(type) {
	case *ast.BlockStmt:
		elseSt := pathState{held: st.held, errFresh: st.errFresh}
		elseHeld, elseTerm = walkStmts(p, a, eb.List, &elseSt)
	case *ast.IfStmt:
		elseSt := pathState{held: st.held, errFresh: st.errFresh}
		elseHeld, elseTerm = walkIf(p, a, eb, &elseSt)
	case nil:
		// fall-through keeps current state
	}

	if thenTerm && elseTerm {
		return false, true
	}
	// Merge: held afterwards if any continuing branch still holds.
	held := false
	if !thenTerm && thenHeld {
		held = true
	}
	if !elseTerm && elseHeld {
		held = true
	}
	// After a successful errGuard if, err has been consumed.
	if errGuard {
		st.errFresh = false
	}
	return held, false
}
