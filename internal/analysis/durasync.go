package analysis

import (
	"go/ast"
)

// durable lists the methods whose error results guard durability or pin
// hygiene: discarding them can silently lose committed data (a Sync that
// failed), leak pins (a Rows.Close that failed mid-stream), or hide a torn
// checkpoint. Matching is (package path suffix, receiver type, method).
var durable = []struct {
	pkg, typ, method string
}{
	{"wal", "Log", "Sync"},
	{"wal", "Log", "Close"},
	{"wal", "Log", "Checkpoint"},
	{"pages", "BufferPool", "FlushAll"},
	{"pages", "BufferPool", "DropCleanBuffers"},
	{"pages", "DiskManager", "Sync"},
	{"engine", "DB", "Checkpoint"},
	{"engine", "DB", "Close"},
	{"engine", "Tx", "Commit"},
	{"engine", "Tx", "Close"},
	{"sqlmini", "Rows", "Close"},
	{"sqlarray", "Database", "Checkpoint"},
	{"sqlarray", "Database", "Close"},
	{"os", "File", "Sync"},
}

// Durasync flags statements that discard the error result of a durability
// call: a bare expression statement, `defer x.Close()`, or `go x.Sync()`.
// An explicit `_ = x.Close()` is accepted as a deliberate discard; the
// preferred fix for defers is merging the error into a named return.
var Durasync = &Analyzer{
	Name: "durasync",
	Doc:  "durability-path errors (wal.Sync, FlushAll, Checkpoint, Close) must be checked, not discarded",
	Run:  runDurasync,
}

func runDurasync(p *Pass) error {
	check := func(expr ast.Expr, kind string) {
		call, ok := unparen(expr).(*ast.CallExpr)
		if !ok {
			return
		}
		recv, name, ok := calleeMethod(p.TypesInfo, call)
		if !ok {
			return
		}
		for _, d := range durable {
			if name == d.method && typeIs(recv, d.pkg, d.typ) {
				p.Reportf(call.Pos(), "%s discards the error of %s.%s; durability and pin-release failures must be checked (use a named-return merge for defers, or `_ =` to discard deliberately)",
					kind, d.typ, d.method)
				return
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				check(s.X, "statement")
			case *ast.DeferStmt:
				check(s.Call, "defer")
			case *ast.GoStmt:
				check(s.Call, "go statement")
			}
			return true
		})
	}
	return nil
}
