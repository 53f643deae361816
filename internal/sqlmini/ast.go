package sqlmini

import (
	"strconv"
	"strings"
)

// Statement is a parsed SQL statement: SELECT, INSERT, UPDATE or
// DELETE. ParseStatement returns one; Execute runs it.
type Statement interface {
	stmtNode()
}

func (*SelectStmt) stmtNode()      {}
func (*insertStatement) stmtNode() {}
func (*updateStatement) stmtNode() {}
func (*deleteStatement) stmtNode() {}
func (*ExplainStmt) stmtNode()     {}

// ExplainStmt is EXPLAIN [ANALYZE] <select>. Plain EXPLAIN renders the
// compiled plan tree without running the query; EXPLAIN ANALYZE runs
// it with per-operator instrumentation and renders the annotated tree
// plus an execution summary. Only SELECT targets are supported — DML
// plans are degenerate (one scan) and not worth a renderer yet.
type ExplainStmt struct {
	Analyze bool
	Stmt    *SelectStmt
}

// insertStatement is INSERT INTO t [(col, ...)] VALUES (expr, ...)[, ...].
// Without a column list the tuples are positional over the full schema.
type insertStatement struct {
	Table   string
	Columns []string // nil = positional
	Rows    [][]Expr
}

// assignment is one SET clause item of an UPDATE. Target is either a
// *columnRef (plain column assignment) or — after arraysugar translation
// of `SET arr[lo:hi, ...] = expr` — a *funcCall naming Subarray or
// Item_N over a column, which the executor turns into an in-place
// subarray update.
type assignment struct {
	Target Expr
	Value  Expr
}

// updateStatement is UPDATE t SET assignment[, ...] [WHERE expr].
type updateStatement struct {
	Table string
	Sets  []assignment
	Where Expr
}

// deleteStatement is DELETE FROM t [WHERE expr].
type deleteStatement struct {
	Table string
	Where Expr
}

// SelectStmt is the query statement form of the dialect:
//
//	SELECT [TOP n] item [, item ...]
//	FROM table [WITH (NOLOCK)]
//	[WHERE expr]
//	[LIMIT n]
//
// LIMIT n is an accepted alias for TOP n; both set Top.
type SelectStmt struct {
	Items  []SelectItem
	Table  string
	NoLock bool
	Where  Expr
	Top    int64 // 0 = no TOP/LIMIT clause
}

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// Expr is a parsed expression node.
type Expr interface {
	exprString(sb *strings.Builder)
}

// exprText renders an expression back to SQL text: result column names,
// plan details and diagnostics. A column reference is its name; anything
// else is rendered into one buffer sized for a typical call.
func exprText(e Expr) string {
	if c, ok := e.(*columnRef); ok {
		return c.Name
	}
	var sb strings.Builder
	sb.Grow(64)
	e.exprString(&sb)
	return sb.String()
}

// numberLit is a numeric literal. Integral-looking literals keep IsInt.
type numberLit struct {
	F     float64
	I     int64
	IsInt bool
}

// stringLit is a string literal (used as the query argument of
// table-driven functions).
type stringLit struct{ S string }

// nullLit is the NULL literal.
type nullLit struct{}

// columnRef references a column of the scanned table.
type columnRef struct{ Name string }

// star is the * inside COUNT(*).
type star struct{}

// aggKind enumerates built-in aggregate functions.
type aggKind uint8

const (
	aggCount aggKind = iota + 1
	aggSum
	aggAvg
	aggMin
	aggMax
)

func (k aggKind) String() string {
	switch k {
	case aggCount:
		return "COUNT"
	case aggSum:
		return "SUM"
	case aggAvg:
		return "AVG"
	case aggMin:
		return "MIN"
	case aggMax:
		return "MAX"
	}
	return "AGG?"
}

// aggCall is a built-in aggregate over an argument expression (or * for
// COUNT(*)).
type aggCall struct {
	Kind aggKind
	Arg  Expr // nil for COUNT(*)
}

// funcCall is a (possibly schema-qualified) scalar UDF call, resolved
// against the engine's function registry at plan time. Function names
// are case-insensitive: the registry resolves Name in any case, and it
// renders lower-cased.
type funcCall struct {
	Name string // as written, "schema.func" or "func"
	Args []Expr
}

// binaryExpr is an infix arithmetic/comparison/logical operation.
type binaryExpr struct {
	Op   string // + - * / % = <> < <= > >= AND OR
	L, R Expr
}

// unaryExpr is unary minus or NOT.
type unaryExpr struct {
	Op string // "-" or "NOT"
	X  Expr
}

func (n *numberLit) exprString(sb *strings.Builder) {
	if n.IsInt {
		sb.WriteString(strconv.FormatInt(n.I, 10))
		return
	}
	sb.WriteString(strconv.FormatFloat(n.F, 'g', -1, 64))
}

func (s *stringLit) exprString(sb *strings.Builder) {
	sb.WriteByte('\'')
	sb.WriteString(strings.ReplaceAll(s.S, "'", "''"))
	sb.WriteByte('\'')
}

func (*nullLit) exprString(sb *strings.Builder) { sb.WriteString("NULL") }

func (c *columnRef) exprString(sb *strings.Builder) { sb.WriteString(c.Name) }

func (*star) exprString(sb *strings.Builder) { sb.WriteByte('*') }

func (a *aggCall) exprString(sb *strings.Builder) {
	sb.WriteString(a.Kind.String())
	sb.WriteByte('(')
	if a.Arg == nil {
		sb.WriteByte('*')
	} else {
		a.Arg.exprString(sb)
	}
	sb.WriteByte(')')
}

func (f *funcCall) exprString(sb *strings.Builder) {
	for i := 0; i < len(f.Name); i++ {
		c := f.Name[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		sb.WriteByte(c)
	}
	sb.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		a.exprString(sb)
	}
	sb.WriteByte(')')
}

func (b *binaryExpr) exprString(sb *strings.Builder) {
	// NOT binds looser than a comparison or arithmetic operator: as
	// their operand it keeps its own parentheses.
	logic := b.Op == "AND" || b.Op == "OR"
	sb.WriteByte('(')
	operandString(sb, b.L, !logic && isNot(b.L))
	sb.WriteByte(' ')
	sb.WriteString(b.Op)
	sb.WriteByte(' ')
	operandString(sb, b.R, !logic && isNot(b.R))
	sb.WriteByte(')')
}

func (u *unaryExpr) exprString(sb *strings.Builder) {
	sb.WriteString(u.Op)
	if u.Op == "NOT" {
		sb.WriteByte(' ')
		u.X.exprString(sb)
		return
	}
	// Under a minus, a second minus would open a "--" comment and a NOT
	// would not parse: both keep parentheses.
	_, nested := u.X.(*unaryExpr)
	operandString(sb, u.X, nested)
}

func isNot(e Expr) bool {
	u, ok := e.(*unaryExpr)
	return ok && u.Op == "NOT"
}

// operandString renders e, in parentheses when paren is set.
func operandString(sb *strings.Builder, e Expr, paren bool) {
	if paren {
		sb.WriteByte('(')
	}
	e.exprString(sb)
	if paren {
		sb.WriteByte(')')
	}
}

// hasAggregate reports whether the expression tree contains an aggCall.
func hasAggregate(e Expr) bool {
	switch n := e.(type) {
	case *aggCall:
		return true
	case *binaryExpr:
		return hasAggregate(n.L) || hasAggregate(n.R)
	case *unaryExpr:
		return hasAggregate(n.X)
	case *funcCall:
		for _, a := range n.Args {
			if hasAggregate(a) {
				return true
			}
		}
	}
	return false
}
