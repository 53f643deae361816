package sqlmini

import (
	"bytes"
	"fmt"
	"math"

	"sqlarray/internal/engine"
)

// ---- plan-time compilation -------------------------------------------

// compiled is an executable expression: evalBatch produces a typed vector
// of values for rows [0, n) of a batch. It is the only evaluator the
// package runs — SELECT operators, DML's read phase, INSERT's constant
// folding and scatter's final projection (the last two over a one-row
// batch) all go through it. Columns, constants, arithmetic, comparisons,
// NOT and UDF calls (one boundary crossing per batch) evaluate both
// operands over the whole batch; AND and OR (cLogic) evaluate the right
// operand only over the rows the left one leaves undecided. The vector
// evalBatch returns is scratch owned by the node — valid until its next
// evalBatch call — except for cCol, which returns the batch column itself.
// The row-at-a-time evaluator the test oracle referenceRun uses lives in
// pipeline_test.go and shares none of this.
type compiled interface {
	evalBatch(b *rowBatch, n int) (*engine.Vector, error)
}

// cConst is a literal: the constant vector standing for it on every row.
type cConst struct{ vec engine.Vector }

func newConst(v engine.Value) *cConst {
	c := new(cConst)
	c.vec.SetConst(v)
	return c
}

func (c *cConst) evalBatch(*rowBatch, int) (*engine.Vector, error) { return &c.vec, nil }

type cCol struct{ idx int }

// cMaxCol reads a VARBINARY(MAX) column for every consumer but the
// first argument of an array function (cMaxRef): comparisons,
// projections, aggregates, user UDFs, the short schemas and the max
// schemas' whole-array functions. On the row the column holds only a
// 12-byte blob ref; this node materializes it into the array payload, so
// they see the same bytes short VARBINARY columns yield. Each
// materialize is a copying read of the whole blob: the payload is the
// node's own, and no chunk page stays pinned.
type cMaxCol struct {
	tbl  *engine.Table
	snap *engine.Snapshot // the statement's read view
	idx  int
	vec  engine.Vector
}

// materialize dereferences a blob ref through the query's snapshot: a
// ref read from a snapshot row must dereference the same commit's chunk
// pages, or a concurrent UPDATE that freed and reused the blob's pages
// could hand this scan foreign bytes.
func (c *cMaxCol) materialize(ref engine.Value) (engine.Value, error) {
	if ref.IsNull() {
		return ref, nil
	}
	payload, err := c.tbl.ResolveMaxAt(c.snap, ref.B)
	if err != nil {
		return engine.Null, err
	}
	return engine.BinaryMaxValue(payload), nil
}

func (c *cMaxCol) evalBatch(b *rowBatch, n int) (*engine.Vector, error) {
	col, err := b.col(c.idx)
	if err != nil {
		return nil, err
	}
	c.vec.Reset(engine.ColVarBinaryMax, n)
	for i := 0; i < n; i++ {
		v, err := c.materialize(col.Value(i))
		if err != nil {
			return nil, err
		}
		c.vec.Set(i, v)
	}
	return &c.vec, nil
}

func (c *cCol) evalBatch(b *rowBatch, n int) (*engine.Vector, error) { return b.col(c.idx) }

// cMaxRef is a VARBINARY(MAX) column as the first argument of an array
// function (FuncDef.ArrayFn: the max schemas' Item_N, Subarray, Length,
// Rank and Dim). It passes what the row holds, the 12-byte blob ref, as
// a ColMaxRef row; the function reads the header and only the byte runs
// it needs through a reader the boundary binds to the statement's
// snapshot for that one call. The refs alias the batch column.
type cMaxRef struct {
	idx int
	vec engine.Vector
}

func (c *cMaxRef) evalBatch(b *rowBatch, n int) (*engine.Vector, error) {
	col, err := b.col(c.idx)
	if err != nil {
		return nil, err
	}
	c.vec = *col // the same refs and NULLs, read-only
	c.vec.Kind = engine.ColMaxRef
	return &c.vec, nil
}

// cUDF invokes a scalar UDF through the engine's CLR-like boundary; the
// FuncDef is resolved once at plan time, as a real plan would cache the
// method handle.
type cUDF struct {
	reg  *engine.FuncRegistry
	def  *engine.FuncDef
	snap *engine.Snapshot // the read view cMaxRef arguments resolve in
	args []compiled
	vec  engine.Vector
}

// evalBatch evaluates every argument over the whole batch and crosses
// the UDF boundary once: each row is still marshaled and dispatched, in
// order, exactly once.
func (c *cUDF) evalBatch(b *rowBatch, n int) (*engine.Vector, error) {
	var buf [4]*engine.Vector // CallBatch keeps no argument: on the stack
	argv := buf[:0]
	for _, a := range c.args {
		v, err := a.evalBatch(b, n)
		if err != nil {
			return nil, err
		}
		argv = append(argv, v)
	}
	if err := c.reg.CallBatch(c.snap, c.def, argv, n, &c.vec); err != nil {
		return nil, err
	}
	return &c.vec, nil
}

type cAggRef struct {
	idx int
	vec engine.Vector
}

func (c *cAggRef) evalBatch(b *rowBatch, n int) (*engine.Vector, error) {
	if c.idx >= len(b.aggVals) {
		return nil, fmt.Errorf("sql: internal: aggregate ref below the aggregate operator")
	}
	c.vec.SetConst(b.aggVals[c.idx])
	return &c.vec, nil
}

type cBinary struct {
	op     string
	l, r   compiled
	vec    engine.Vector
	lf, rf []float64 // BIGINT operands widened for a mixed-type kernel
}

// evalBatch vectorizes arithmetic and comparison over both operand
// vectors.
func (c *cBinary) evalBatch(b *rowBatch, n int) (*engine.Vector, error) {
	l, err := c.l.evalBatch(b, n)
	if err != nil {
		return nil, err
	}
	r, err := c.r.evalBatch(b, n)
	if err != nil {
		return nil, err
	}
	if l.Const && r.Const {
		n = 1 // one evaluation stands for every row
	}
	if !c.evalTyped(l, r, n) {
		c.vec.Reset(0, n)
		for i := 0; i < n; i++ {
			v, err := applyBinary(c.op, l.Value(i), r.Value(i))
			if err != nil {
				return nil, err
			}
			c.vec.Set(i, v)
		}
	}
	c.vec.Const = l.Const && r.Const
	return &c.vec, nil
}

// evalTyped runs the operator as a loop over the operands' raw slices
// when both are uniform numeric vectors, reporting whether it did. Two
// BIGINT operands stay integral (except under /); a BIGINT beside a
// FLOAT is widened first, exactly as arith and compare coerce a single
// pair. NULL rows compute on whatever the slice holds and are masked by
// the merged null bitmaps. % is left to the row-wise path (a zero
// BIGINT divisor is an error, per row).
func (c *cBinary) evalTyped(l, r *engine.Vector, n int) bool {
	numeric := func(v *engine.Vector) bool {
		return v.Uniform() && (v.Kind == engine.ColInt64 || v.Kind == engine.ColFloat64)
	}
	if !numeric(l) || !numeric(r) || c.op == "%" {
		return false
	}
	out, lm, rm := &c.vec, l.Mask(), r.Mask()
	ints := l.Kind == engine.ColInt64 && r.Kind == engine.ColInt64 && c.op != "/"
	var lf, rf []float64
	if !ints {
		lf, rf = widen(l, n, &c.lf), widen(r, n, &c.rf)
	}
	switch c.op {
	case "/":
		out.Reset(engine.ColFloat64, n)
		for i := range out.F {
			out.F[i] = lf[i&lm] / rf[i&rm]
		}
	case "+", "-", "*":
		if ints {
			out.Reset(engine.ColInt64, n)
			arithVec(c.op, out.I, l.I, r.I, lm, rm)
		} else {
			out.Reset(engine.ColFloat64, n)
			arithVec(c.op, out.F, lf, rf, lm, rm)
		}
	default:
		out.Reset(engine.ColInt64, n)
		if ints {
			cmpVec(c.op, out.I, l.I, r.I, lm, rm)
		} else {
			cmpVec(c.op, out.I, lf, rf, lm, rm)
		}
	}
	out.OrNulls(l)
	out.OrNulls(r)
	return true
}

// widen returns v's rows as float64s: the FLOAT slice itself, or the
// BIGINT rows converted into scratch.
func widen(v *engine.Vector, n int, scratch *[]float64) []float64 {
	if v.Kind == engine.ColFloat64 {
		return v.F
	}
	if v.Const {
		n = 1
	}
	if cap(*scratch) < n {
		*scratch = make([]float64, n)
	}
	f := (*scratch)[:n]
	for i, x := range v.I[:n] {
		f[i] = float64(x)
	}
	return f
}

// arithVec is +, - or * over two operand slices; lm and rm are the
// operands' index masks (0 for a constant).
func arithVec[T int64 | float64](op string, out, l, r []T, lm, rm int) {
	switch op {
	case "+":
		for i := range out {
			out[i] = l[i&lm] + r[i&rm]
		}
	case "-":
		for i := range out {
			out[i] = l[i&lm] - r[i&rm]
		}
	case "*":
		for i := range out {
			out[i] = l[i&lm] * r[i&rm]
		}
	}
}

// cmpVec is a comparison over two operand slices, 1 or 0 per row. On
// floats these are the IEEE comparisons, which agree with compare()'s
// NaN handling: every operator is false on NaN except <>. a > b runs as
// b < a, a >= b as b <= a.
func cmpVec[T int64 | float64](op string, out []int64, l, r []T, lm, rm int) {
	switch op {
	case ">", ">=":
		l, r, lm, rm = r, l, rm, lm
	}
	switch op {
	case "=":
		for i := range out {
			out[i] = b2i(l[i&lm] == r[i&rm])
		}
	case "<>":
		for i := range out {
			out[i] = b2i(l[i&lm] != r[i&rm])
		}
	case "<", ">":
		for i := range out {
			out[i] = b2i(l[i&lm] < r[i&rm])
		}
	case "<=", ">=":
		for i := range out {
			out[i] = b2i(l[i&lm] <= r[i&rm])
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cLogic is AND or OR (SQL three-valued logic reduced to two-valued with
// NULL = false, sufficient for the workload). Short-circuiting decides
// per row whether the right operand runs at all — and with it which UDF
// calls happen and whether an error surfaces — so evalBatch evaluates the
// left operand over rows [0, n) and the right operand only over the rows
// the left one leaves undecided (false under OR, true under AND): over
// none of them, over the same batch when that is all of them, otherwise
// over a scratch batch holding those rows of the columns the right
// operand reads.
type cLogic struct {
	or   bool
	l, r compiled
	need []int // schema columns the right operand references
	vec  engine.Vector
	sel  []int    // the undecided rows
	sub  rowBatch // those rows, gathered for the right operand
}

func (c *cLogic) evalBatch(b *rowBatch, n int) (*engine.Vector, error) {
	l, err := c.l.evalBatch(b, n)
	if err != nil {
		return nil, err
	}
	// Every row starts as what the left operand decides it to be; the
	// rows it leaves undecided are then overwritten from the right one.
	out := &c.vec
	out.Reset(engine.ColInt64, n)
	for i := range out.I {
		out.I[i] = b2i(c.or)
	}
	sel := rowsWhere(c.sel[:0], l, n, !c.or)
	c.sel = sel
	if len(sel) == 0 {
		return out, nil
	}
	rb := b
	if len(sel) < n {
		rb = c.gather(b, sel)
	}
	r, err := c.r.evalBatch(rb, len(sel))
	if err != nil {
		return nil, err
	}
	for j, i := range sel {
		out.I[i] = b2i(truthy(r.Value(j)))
	}
	return out, nil
}

// gather fills the scratch batch with rows sel of b, copying only the
// columns the right operand reads. Binary rows alias b's, which outlive
// the evaluation.
func (c *cLogic) gather(b *rowBatch, sel []int) *rowBatch {
	sub := &c.sub
	if sub.cols == nil {
		sub.cols = make([]*engine.Vector, len(b.cols))
	}
	sub.n, sub.aggVals = len(sel), b.aggVals
	for _, ci := range c.need {
		src := b.cols[ci]
		if src == nil {
			continue // col reports the undecoded column
		}
		dst := sub.cols[ci]
		if dst == nil {
			dst = new(engine.Vector)
			sub.cols[ci] = dst
		}
		// Batch columns come from FillBatch: uniform, never constant.
		dst.Reset(src.Kind, len(sel))
		switch src.Kind {
		case engine.ColInt64:
			for j, i := range sel {
				dst.I[j] = src.I[i]
			}
		case engine.ColFloat64:
			for j, i := range sel {
				dst.F[j] = src.F[i]
			}
		default:
			for j, i := range sel {
				dst.B[j] = src.B[i]
			}
		}
		if src.HasNulls() {
			for j, i := range sel {
				if src.IsNull(i) {
					dst.SetNull(j)
				}
			}
		}
	}
	return sub
}

// applyBinary is one arithmetic or comparison operator over one pair of
// values; NULL in, NULL out.
func applyBinary(op string, l, r engine.Value) (engine.Value, error) {
	if l.IsNull() || r.IsNull() {
		return engine.Null, nil
	}
	switch op {
	case "+", "-", "*", "/", "%":
		return arith(op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		return compare(op, l, r)
	}
	return engine.Null, fmt.Errorf("sql: unknown operator %q", op)
}

type cUnary struct {
	op  string
	x   compiled
	vec engine.Vector
}

// evalBatch applies the operator row by row (negation and NOT are rare
// in the workload's queries).
func (c *cUnary) evalBatch(b *rowBatch, n int) (*engine.Vector, error) {
	x, err := c.x.evalBatch(b, n)
	if err != nil {
		return nil, err
	}
	if x.Const {
		n = 1
	}
	c.vec.Reset(0, n)
	for i := 0; i < n; i++ {
		v := x.Value(i)
		if c.op == "NOT" {
			if !v.IsNull() {
				v = boolVal(!truthy(v))
			}
		} else if v, err = negate(v); err != nil {
			return nil, err
		}
		c.vec.Set(i, v)
	}
	c.vec.Const = x.Const
	return &c.vec, nil
}

// negate is unary minus over one value; NULL in, NULL out.
func negate(v engine.Value) (engine.Value, error) {
	switch v.Kind {
	case 0:
		return engine.Null, nil
	case engine.ColInt64:
		return engine.IntValue(-v.I), nil
	}
	f, err := v.AsFloat()
	if err != nil {
		return engine.Null, err
	}
	return engine.FloatValue(-f), nil
}

func boolVal(b bool) engine.Value { return engine.IntValue(b2i(b)) }

func truthy(v engine.Value) bool {
	switch v.Kind {
	case engine.ColInt64:
		return v.I != 0
	case engine.ColFloat64:
		return v.F != 0
	}
	return false
}

func arith(op string, l, r engine.Value) (engine.Value, error) {
	// Integer arithmetic stays integral except for division, matching
	// T-SQL only loosely (T-SQL integer division truncates; scientific
	// workloads here always use floats, so / promotes to float).
	if l.Kind == engine.ColInt64 && r.Kind == engine.ColInt64 && op != "/" {
		switch op {
		case "+":
			return engine.IntValue(l.I + r.I), nil
		case "-":
			return engine.IntValue(l.I - r.I), nil
		case "*":
			return engine.IntValue(l.I * r.I), nil
		case "%":
			if r.I == 0 {
				return engine.Null, fmt.Errorf("sql: modulo by zero")
			}
			return engine.IntValue(l.I % r.I), nil
		}
	}
	lf, err := l.AsFloat()
	if err != nil {
		return engine.Null, err
	}
	rf, err := r.AsFloat()
	if err != nil {
		return engine.Null, err
	}
	switch op {
	case "+":
		return engine.FloatValue(lf + rf), nil
	case "-":
		return engine.FloatValue(lf - rf), nil
	case "*":
		return engine.FloatValue(lf * rf), nil
	case "/":
		return engine.FloatValue(lf / rf), nil
	case "%":
		return engine.FloatValue(math.Mod(lf, rf)), nil
	}
	return engine.Null, fmt.Errorf("sql: unknown arithmetic %q", op)
}

func compare(op string, l, r engine.Value) (engine.Value, error) {
	var c int
	lb, lIsBin := binaryKind(l)
	rb, rIsBin := binaryKind(r)
	switch {
	case lIsBin && rIsBin:
		c = bytes.Compare(lb, rb)
	case lIsBin != rIsBin:
		return engine.Null, fmt.Errorf("%w: comparing binary with numeric", engine.ErrTypeError)
	case l.Kind == engine.ColInt64 && r.Kind == engine.ColInt64:
		// BIGINT pairs compare exactly (as in T-SQL); going through
		// float64 would collapse values past 2^53. This is also what
		// keeps eval and evalBatch identical — the vectorized int kernel
		// is exact.
		switch {
		case l.I < r.I:
			c = -1
		case l.I > r.I:
			c = 1
		}
	default:
		lf, err := l.AsFloat()
		if err != nil {
			return engine.Null, err
		}
		rf, err := r.AsFloat()
		if err != nil {
			return engine.Null, err
		}
		if math.IsNaN(lf) || math.IsNaN(rf) {
			// IEEE semantics: NaN is unordered; only <> holds.
			return boolVal(op == "<>"), nil
		}
		switch {
		case lf < rf:
			c = -1
		case lf > rf:
			c = 1
		}
	}
	switch op {
	case "=":
		return boolVal(c == 0), nil
	case "<>":
		return boolVal(c != 0), nil
	case "<":
		return boolVal(c < 0), nil
	case "<=":
		return boolVal(c <= 0), nil
	case ">":
		return boolVal(c > 0), nil
	case ">=":
		return boolVal(c >= 0), nil
	}
	return engine.Null, fmt.Errorf("sql: unknown comparison %q", op)
}

func binaryKind(v engine.Value) ([]byte, bool) {
	if v.Kind == engine.ColVarBinary || v.Kind == engine.ColVarBinaryMax {
		return v.B, true
	}
	return nil, false
}

// ---- expression compilation ---------------------------------------------

// compileCtx carries plan-time state; aggregate arguments register
// accumulators here, and column references mark their schema index in
// used so the batch scan decodes only referenced columns, and in deref
// when the column is a MAX column some expression materializes.
type compileCtx struct {
	db     *engine.DB
	tbl    *engine.Table
	schema *engine.Schema
	snap   *engine.Snapshot // read view for MAX-column derefs; nil only where no column is evaluated
	accs   []*accumulator
	used   []bool
	deref  []bool
}

func newCompileCtx(db *engine.DB, tbl *engine.Table, snap *engine.Snapshot) *compileCtx {
	schema := tbl.Schema()
	n := len(schema.Columns)
	marks := make([]bool, 2*n)
	return &compileCtx{db: db, tbl: tbl, schema: schema, snap: snap, used: marks[:n:n], deref: marks[n:]}
}

// maxRef compiles e as an array function's first argument: a MAX column
// there passes its blob ref (cMaxRef), which the function reads through,
// instead of the materialized payload. It returns nil for anything else.
func (cc *compileCtx) maxRef(e Expr) *cMaxRef {
	c, ok := e.(*columnRef)
	if !ok {
		return nil
	}
	idx := cc.schema.ColIndex(c.Name)
	if idx < 0 || cc.schema.Columns[idx].Type != engine.ColVarBinaryMax {
		return nil
	}
	cc.used[idx] = true
	return &cMaxRef{idx: idx}
}

// compile turns an AST node into an executable expression. Inside an
// aggregate query, aggCall nodes become accumulator references and their
// arguments are compiled for the per-row pass.
func (cc *compileCtx) compile(e Expr, inAggQuery bool) (compiled, error) {
	switch n := e.(type) {
	case *numberLit:
		if n.IsInt {
			return newConst(engine.IntValue(n.I)), nil
		}
		return newConst(engine.FloatValue(n.F)), nil
	case *stringLit:
		return newConst(engine.BinaryValue([]byte(n.S))), nil
	case *nullLit:
		return newConst(engine.Null), nil
	case *columnRef:
		idx := cc.schema.ColIndex(n.Name)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, n.Name)
		}
		cc.used[idx] = true
		if inAggQuery {
			// An aggregate query emits one row with no underlying scan row;
			// a bare column there has no value (T-SQL rejects this too, as
			// there is no GROUP BY in the dialect).
			return nil, fmt.Errorf("sql: column %q must appear inside an aggregate function", n.Name)
		}
		if cc.schema.Columns[idx].Type == engine.ColVarBinaryMax {
			cc.deref[idx] = true
			return &cMaxCol{tbl: cc.tbl, snap: cc.snap, idx: idx}, nil
		}
		return &cCol{idx: idx}, nil
	case *star:
		return nil, fmt.Errorf("sql: * outside COUNT(*)")
	case *aggCall:
		if !inAggQuery {
			return nil, fmt.Errorf("sql: aggregate in row context")
		}
		acc := &accumulator{kind: n.Kind}
		if n.Arg != nil {
			arg, err := cc.compile(n.Arg, false)
			if err != nil {
				return nil, err
			}
			acc.arg = arg
		}
		cc.accs = append(cc.accs, acc)
		return &cAggRef{idx: len(cc.accs) - 1}, nil
	case *funcCall:
		def, err := cc.db.Funcs().Lookup(n.Name)
		if err != nil {
			return nil, err
		}
		args := make([]compiled, len(n.Args))
		for i, a := range n.Args {
			if i == 0 && def.ArrayFn != nil {
				if ref := cc.maxRef(a); ref != nil {
					args[i] = ref
					continue
				}
			}
			c, err := cc.compile(a, false)
			if err != nil {
				return nil, err
			}
			args[i] = c
		}
		return &cUDF{reg: cc.db.Funcs(), def: def, snap: cc.snap, args: args}, nil
	case *binaryExpr:
		l, err := cc.compile(n.L, inAggQuery)
		if err != nil {
			return nil, err
		}
		if n.Op != "AND" && n.Op != "OR" {
			r, err := cc.compile(n.R, inAggQuery)
			if err != nil {
				return nil, err
			}
			return &cBinary{op: n.Op, l: l, r: r}, nil
		}
		// Compile the right operand against a fresh used set to learn
		// which columns it alone reads, then fold that into the plan's.
		outer := cc.used
		cc.used = make([]bool, len(outer))
		r, err := cc.compile(n.R, inAggQuery)
		if err != nil {
			return nil, err
		}
		lg := &cLogic{or: n.Op == "OR", l: l, r: r}
		for ci, u := range cc.used {
			if u {
				outer[ci] = true
				lg.need = append(lg.need, ci)
			}
		}
		cc.used = outer
		return lg, nil
	case *unaryExpr:
		if n.Op != "-" && n.Op != "NOT" {
			return nil, fmt.Errorf("sql: unknown unary %q", n.Op)
		}
		x, err := cc.compile(n.X, inAggQuery)
		if err != nil {
			return nil, err
		}
		return &cUnary{op: n.Op, x: x}, nil
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}
