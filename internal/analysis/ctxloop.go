package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxloop prepares the multi-session server work: every executor-internal
// scan or drain loop must poll cancellation, so a long analytical query can
// be aborted without waiting for the full table scan. Concretely, inside
// packages named "sqlmini", any `for`/`range` loop that advances a stream —
// calling `nextBatch` (the internal operator protocol) or
// `engine.Cursor.Next`/`FillBatch` (the row step and the typed-vector
// batch fill) — must, somewhere in the loop body or its condition, do
// one of:
//
//   - call a method on a context.Context value (ctx.Err(), ctx.Done()),
//   - call a function or method whose name contains "cancel" (the
//     pollCancel helper).
//
// Calls of the exported Rows.Next are deliberately not matched: user-facing
// drain loops outside the executor are the caller's business. The refill
// loop inside Rows.Next itself calls nextBatch, so it is checked.
var Ctxloop = &Analyzer{
	Name: "ctxloop",
	Doc:  "executor scan/drain loops must poll cancellation (ctx.Err or a pollCancel helper)",
	Run:  runCtxloop,
}

func runCtxloop(p *Pass) error {
	if p.Pkg == nil || p.Pkg.Name() != "sqlmini" {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var cond ast.Expr
			switch l := n.(type) {
			case *ast.ForStmt:
				body, cond = l.Body, l.Cond
			case *ast.RangeStmt:
				body = l.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			if !loopAdvancesStream(p.TypesInfo, body, cond) {
				return true
			}
			if loopPollsCancel(p.TypesInfo, body, cond) {
				return true
			}
			p.Reportf(n.Pos(), "executor loop advances a row/batch stream without polling cancellation; check ctx (pollCancel) each iteration")
			return true
		})
	}
	return nil
}

// streamAdvance reports whether call advances a stream: the internal
// operator protocol (nextBatch) or a cursor walk (engine.Cursor
// Next/FillBatch, btree.Iterator Next).
func streamAdvance(info *types.Info, call *ast.CallExpr) bool {
	recv, name, ok := calleeMethod(info, call)
	if !ok {
		return false
	}
	switch name {
	case "nextBatch":
		// Only the operator protocol: the `batchOperator` interface or a
		// *fooOp struct.
		n := namedOf(recv)
		if n == nil || n.Obj() == nil {
			return false
		}
		tn := n.Obj().Name()
		return tn == "batchOperator" || strings.HasSuffix(tn, "Op")
	case "Next", "FillBatch":
		return typeIs(recv, "engine", "Cursor") || typeIs(recv, "btree", "Iterator")
	}
	return false
}

// nested loops do their own polling; scan only this loop's direct body.
func loopAdvancesStream(info *types.Info, body *ast.BlockStmt, cond ast.Expr) bool {
	found := false
	scan := func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && streamAdvance(info, call) {
			found = true
		}
		return !found
	}
	if cond != nil {
		ast.Inspect(cond, scan)
	}
	ast.Inspect(body, scan)
	return found
}

func loopPollsCancel(info *types.Info, body *ast.BlockStmt, cond ast.Expr) bool {
	polls := false
	scan := func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !polls
		}
		if isCancelPoll(info, call) {
			polls = true
		}
		return !polls
	}
	if cond != nil {
		ast.Inspect(cond, scan)
	}
	ast.Inspect(body, scan)
	return polls
}

func isCancelPoll(info *types.Info, call *ast.CallExpr) bool {
	// Plain function whose name mentions cancel: pollCancel(ctx).
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if strings.Contains(strings.ToLower(id.Name), "cancel") {
			return true
		}
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if strings.Contains(strings.ToLower(sel.Sel.Name), "cancel") {
		return true
	}
	// Method call on a context.Context value: ctx.Err(), ctx.Done().
	tv, ok := info.Types[sel.X]
	return ok && tv.Type != nil && isContextType(tv.Type)
}

func isContextType(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}
