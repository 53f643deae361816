package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Latchorder proves the documented lock hierarchy
//
//	db.writeMu (0) → db.pubMu (1) → pool mu (2) → leaves (3)
//
// db.pubMu pairs a commit's clock tick with its catalog swap (and a
// snapshot's tag with its catalog); the pool's one mutex guards its page
// table, version sidecar and live snapshot tags.
//
// A function holding a level-L latch may only acquire latches at a
// strictly greater level. The analyzer classifies direct Lock/RLock calls
// on the known mutex fields, computes a per-function summary of all latch
// levels it may transitively acquire (intra-package call graph to a
// fixpoint, plus seeded summaries for the engine's external callees:
// buffer-pool, btree and blob operations all reach the pool mutex), and
// then walks each function lexically with the set of currently-held
// levels, reporting any call or Lock that can acquire a level ≤ one
// already held. A function that releases a latch before it takes it
// (the pool's miss path drops the pool mutex for its disk read and
// takes it back) does not count that acquisition in its summary: its
// caller holds the latch, and the function only hands it back.
//
// It also enforces the write-transaction discipline: Table methods whose
// name ends in Tx (the DML entry points) mutate under WAL capture, so a
// caller must itself be in transaction context — have a *engine.Tx
// parameter or receiver (a function literal's own *Tx parameter counts
// for its body), or have obtained one via db.Begin() earlier in the same
// function.
var Latchorder = &Analyzer{
	Name: "latchorder",
	Doc:  "lock acquisitions must follow db.writeMu → db.pubMu → pool mu; DML *Tx entry points require transaction context",
	Run:  runLatchorder,
}

// latch levels by (package suffix, struct type, field name).
var latchLevels = []struct {
	pkg, typ, field string
	level           int
}{
	{"engine", "DB", "writeMu", 0},
	{"engine", "DB", "pubMu", 1},
	{"pages", "BufferPool", "mu", 2},
	{"wal", "Log", "mu", 3},
}

var latchNames = map[int]string{
	0: "db.writeMu",
	1: "db.pubMu",
	2: "pool mu",
	3: "leaf mutex (wal)",
}

// external summaries: calls into these (pkg, type) pairs may acquire the
// listed levels, used when the callee's body is outside the package under
// analysis.
var externalAcquires = []struct {
	pkg, typ string
	levels   []int
}{
	// Every page access takes the pool mutex.
	{"pages", "BufferPool", []int{2}},
	{"btree", "Tree", []int{2}},
	{"btree", "Iterator", []int{2}},
	{"blob", "Store", []int{2}},
	{"blob", "Reader", []int{2}},
	{"engine", "Table", []int{1, 2}},
	{"engine", "Snapshot", []int{2}},
	{"engine", "Cursor", []int{2}},
	{"pages", "Snapshot", []int{2}},
	{"wal", "Log", []int{3}},
}

type levelSet uint8

func (s levelSet) has(l int) bool    { return s&(1<<uint(l)) != 0 }
func (s *levelSet) add(l int)        { *s |= 1 << uint(l) }
func (s *levelSet) union(o levelSet) { *s |= o }
func (s levelSet) min() int {
	for l := 0; l <= 3; l++ {
		if s.has(l) {
			return l
		}
	}
	return -1
}
func (s levelSet) maxHeld() int {
	for l := 3; l >= 0; l-- {
		if s.has(l) {
			return l
		}
	}
	return -1
}

// lockOp classifies one direct mutex operation.
type lockOp struct {
	level   int
	acquire bool // Lock/RLock vs Unlock/RUnlock
}

// classifyLockCall returns the lock op if call is mu.Lock() etc. on one of
// the known latch fields.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return lockOp{}, false
	}
	// sel.X must be a selector for a known field: <expr>.mu
	fieldSel, ok := unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fld := fieldOf(info, fieldSel)
	if fld == nil {
		return lockOp{}, false
	}
	owner := fieldOwner(info, fieldSel)
	for _, m := range latchLevels {
		if fld.Name() == m.field && owner != nil &&
			owner.Obj().Name() == m.typ && pkgPathMatches(owner.Obj().Pkg().Path(), m.pkg) {
			return lockOp{level: m.level, acquire: acquire}, true
		}
	}
	return lockOp{}, false
}

// fieldOwner returns the named struct type whose field a selector picks.
func fieldOwner(info *types.Info, sel *ast.SelectorExpr) *types.Named {
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return nil
	}
	return namedOf(tv.Type)
}

// calleeLevels returns the latch levels a call may acquire, using the
// intra-package summary when available and the external table otherwise.
func calleeLevels(info *types.Info, call *ast.CallExpr, summaries map[*types.Func]levelSet) levelSet {
	var out levelSet
	// Same-package (or any summarized) function?
	if fn := calledFunc(info, call); fn != nil {
		if s, ok := summaries[fn]; ok {
			return s
		}
	}
	if recv, _, ok := calleeMethod(info, call); ok {
		for _, e := range externalAcquires {
			if typeIs(recv, e.pkg, e.typ) {
				for _, l := range e.levels {
					out.add(l)
				}
				return out
			}
		}
	}
	return out
}

// calledFunc resolves a call to its *types.Func, if statically known.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func runLatchorder(p *Pass) error {
	info := p.TypesInfo

	// Pass 1: direct acquisitions per function declaration.
	type fnDecl struct {
		fn   *types.Func
		decl *ast.FuncDecl
	}
	var fns []fnDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn := funcDeclObj(info, fd); fn != nil {
					fns = append(fns, fnDecl{fn, fd})
				}
			}
		}
	}

	summaries := map[*types.Func]levelSet{}
	// direct collects the levels a body locks, in source order, leaving
	// out a level the body unlocked first (outside a defer): that lock
	// takes back a latch the caller holds.
	direct := func(fd *ast.FuncDecl) levelSet {
		var s, released levelSet
		deferred := map[*ast.CallExpr]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				ast.Inspect(d, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						deferred[call] = true
					}
					return true
				})
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, ok := classifyLockCall(info, call); ok {
				if !op.acquire && !deferred[call] {
					released.add(op.level)
				} else if op.acquire && !released.has(op.level) {
					s.add(op.level)
				}
			}
			return true
		})
		return s
	}
	for _, fd := range fns {
		summaries[fd.fn] = direct(fd.decl)
	}

	// Fixpoint over the intra-package call graph.
	for changed := true; changed; {
		changed = false
		for _, fd := range fns {
			s := summaries[fd.fn]
			before := s
			ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					s.union(calleeLevels(info, call, summaries))
				}
				return true
			})
			if s != before {
				summaries[fd.fn] = s
				changed = true
			}
		}
	}

	// Pass 2: lexical held-set walk per function.
	for _, fd := range fns {
		walkLatches(p, fd.decl, summaries)
		checkTxDiscipline(p, fd.decl)
	}
	return nil
}

// walkLatches tracks the held set lexically through a function body:
// Lock adds, Unlock removes, `defer mu.Unlock()` keeps the latch held to
// the end. Calls are checked against their transitive summary.
func walkLatches(p *Pass, fd *ast.FuncDecl, summaries map[*types.Func]levelSet) {
	info := p.TypesInfo
	var held levelSet

	check := func(call *ast.CallExpr) {
		maxHeld := held.maxHeld()
		if maxHeld < 0 {
			return
		}
		if op, ok := classifyLockCall(info, call); ok {
			if op.acquire && op.level <= maxHeld {
				p.Reportf(call.Pos(), "acquiring %s while holding %s violates the latch order (writeMu → db.pubMu → pool mu)",
					latchNames[op.level], latchNames[maxHeld])
			}
			return
		}
		lv := calleeLevels(info, call, summaries)
		if lv == 0 {
			return
		}
		if m := lv.min(); m >= 0 && m <= maxHeld {
			p.Reportf(call.Pos(), "call may acquire %s while %s is held, violating the latch order",
				latchNames[m], latchNames[maxHeld])
		}
	}

	walkInner(p, fd.Body, &held, summaries, check)
}

// walkInner is the sequential statement walk, shared with closures.
func walkInner(p *Pass, body *ast.BlockStmt, held *levelSet, summaries map[*types.Func]levelSet, check func(*ast.CallExpr)) {
	info := p.TypesInfo
	var doStmt func(s ast.Stmt)
	doExpr := func(e ast.Node) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(m ast.Node) bool {
			switch t := m.(type) {
			case *ast.FuncLit:
				var inner levelSet
				walkInner(p, t.Body, &inner, summaries, check)
				return false
			case *ast.CallExpr:
				check(t)
				if op, ok := classifyLockCall(info, t); ok {
					if op.acquire {
						held.add(op.level)
					} else {
						*held &^= 1 << uint(op.level)
					}
				}
			}
			return true
		})
	}
	doStmt = func(s ast.Stmt) {
		switch t := s.(type) {
		case *ast.DeferStmt:
			// defer mu.Unlock() → latch stays held to function end: no
			// change to the held set. defer mu.Lock() is nonsense; any
			// other deferred call is checked with an empty held set at
			// exit — skip.
			if op, ok := classifyLockCall(info, t.Call); ok && !op.acquire {
				return
			}
			// A deferred call runs at function exit, after the lexical
			// unlocks; analyze it against an empty held set.
			saved := *held
			*held = 0
			doExpr(t.Call)
			*held = saved
		case *ast.BlockStmt:
			for _, st := range t.List {
				doStmt(st)
			}
		case *ast.IfStmt:
			if t.Init != nil {
				doStmt(t.Init)
			}
			doExpr(t.Cond)
			saved := *held
			doStmt(t.Body)
			*held = saved
			if t.Else != nil {
				doStmt(t.Else)
				*held = saved
			}
		case *ast.ForStmt:
			if t.Init != nil {
				doStmt(t.Init)
			}
			doExpr(t.Cond)
			saved := *held
			doStmt(t.Body)
			*held = saved
		case *ast.RangeStmt:
			doExpr(t.X)
			saved := *held
			doStmt(t.Body)
			*held = saved
		case *ast.SwitchStmt:
			if t.Init != nil {
				doStmt(t.Init)
			}
			doExpr(t.Tag)
			saved := *held
			for _, c := range t.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, st := range cc.Body {
						doStmt(st)
					}
					*held = saved
				}
			}
		case *ast.LabeledStmt:
			doStmt(t.Stmt)
		default:
			doExpr(s)
		}
	}
	for _, s := range body.List {
		doStmt(s)
	}
}

// checkTxDiscipline: any call to a Table method ending in "Tx" must be in
// transaction context.
func checkTxDiscipline(p *Pass, fd *ast.FuncDecl) {
	info := p.TypesInfo

	// (a) *Tx receiver or parameter.
	hasTx := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			if tv, ok := info.Types[f.Type]; ok && tv.Type != nil && typeIs(tv.Type, "engine", "Tx") {
				return true
			}
		}
		return false
	}
	if hasTx(fd.Recv) || hasTx(fd.Type.Params) {
		return
	}

	// (b) a Begin() call anywhere before the Tx call (lexically).
	var beginPos = token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, name, ok := calleeMethod(info, call); ok && name == "Begin" {
			if beginPos == token.NoPos || call.Pos() < beginPos {
				beginPos = call.Pos()
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && hasTx(fl.Type.Params) {
			return false // the closure is handed its caller's transaction
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := calleeMethod(info, call)
		if !ok || !strings.HasSuffix(name, "Tx") || name == "Tx" {
			return true
		}
		if !typeIs(recv, "engine", "Table") {
			return true
		}
		if beginPos != token.NoPos && beginPos < call.Pos() {
			return true
		}
		p.Reportf(call.Pos(), "DML entry point %s requires a write transaction: call it with a *Tx from db.Begin() (or from a *Tx method)", name)
		return true
	})
}
