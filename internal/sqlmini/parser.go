package sqlmini

import (
	"slices"
	"strconv"
)

// Parse parses a single SELECT statement.
func Parse(src string) (*SelectStmt, error) {
	p := parser{lex: lexer{src: src}}
	p.advance()
	stmt, err := p.selectStmt()
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return stmt, nil
}

// ParseStatement parses any supported statement: SELECT, INSERT,
// UPDATE or DELETE.
func ParseStatement(src string) (Statement, error) {
	p := parser{lex: lexer{src: src}}
	p.advance()
	var stmt Statement
	var err error
	switch t := p.peek(); {
	case t.kind == tokKeyword && t.text == "SELECT":
		stmt, err = p.selectStmt()
	case t.kind == tokKeyword && t.text == "INSERT":
		stmt, err = p.insertStmt()
	case t.kind == tokKeyword && t.text == "UPDATE":
		stmt, err = p.updateStmt()
	case t.kind == tokKeyword && t.text == "DELETE":
		stmt, err = p.deleteStmt()
	case t.kind == tokKeyword && t.text == "EXPLAIN":
		stmt, err = p.explainStmt()
	default:
		err = errAt(t.pos, "expected SELECT, INSERT, UPDATE, DELETE or EXPLAIN, got %q", t.text)
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return stmt, nil
}

// explainStmt parses EXPLAIN [ANALYZE] <select>.
func (p *parser) explainStmt() (*ExplainStmt, error) {
	if err := p.expectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	stmt := &ExplainStmt{Analyze: p.acceptKeyword("ANALYZE")}
	if t := p.peek(); !(t.kind == tokKeyword && t.text == "SELECT") {
		return nil, errAt(t.pos, "EXPLAIN supports SELECT only, got %q", t.text)
	}
	var err error
	if stmt.Stmt, err = p.selectStmt(); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) tableName() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", errAt(t.pos, "expected table name, got %q", t.text)
	}
	return p.next().text, nil
}

// insertStmt parses INSERT INTO t [(col, ...)] VALUES (tuple)[, ...].
func (p *parser) insertStmt() (*insertStatement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	stmt := &insertStatement{}
	var err error
	if stmt.Table, err = p.tableName(); err != nil {
		return nil, err
	}
	if p.acceptPunct("(") {
		for {
			t := p.peek()
			if t.kind != tokIdent {
				return nil, errAt(t.pos, "expected column name, got %q", t.text)
			}
			stmt.Columns = append(stmt.Columns, p.next().text)
			if p.acceptPunct(",") {
				continue
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var tuple []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			tuple = append(tuple, e)
			if p.acceptPunct(",") {
				continue
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			break
		}
		stmt.Rows = append(stmt.Rows, tuple)
		if !p.acceptPunct(",") {
			break
		}
	}
	return stmt, nil
}

// updateStmt parses UPDATE t SET target = expr[, ...] [WHERE expr].
// A SET target is parsed as a primary expression, so both plain columns
// and the arraysugar-translated Subarray/Item_N calls (the subscripted
// l-value forms) come through.
func (p *parser) updateStmt() (*updateStatement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	stmt := &updateStatement{}
	var err error
	if stmt.Table, err = p.tableName(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		target, err := p.primary()
		if err != nil {
			return nil, err
		}
		if t := p.peek(); t.kind != tokOp || t.text != "=" {
			return nil, errAt(t.pos, "expected = after SET target, got %q", t.text)
		}
		p.next()
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, assignment{Target: target, Value: val})
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

// deleteStmt parses DELETE FROM t [WHERE expr].
func (p *parser) deleteStmt() (*deleteStatement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	stmt := &deleteStatement{}
	var err error
	if stmt.Table, err = p.tableName(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

// parser is a recursive-descent parser over the lexer's token stream:
// tok is the one token of lookahead, lexed when the parser moves past
// the one before it.
type parser struct {
	lex   lexer
	tok   token
	err   error // the first lexing error; tok is then a stand-in EOF
	depth int

	// The commonest nodes are carved from slabs of a few, so that a
	// statement's column references, literals and operators share
	// allocations.
	cols []columnRef
	nums []numberLit
	bins []binaryExpr
}

// carve returns the next zero node of *slab, refilling it when empty.
func carve[T any](slab *[]T) *T {
	if len(*slab) == 0 {
		*slab = make([]T, 4)
	}
	n := &(*slab)[0]
	*slab = (*slab)[1:]
	return n
}

func (p *parser) column(name string) *columnRef {
	c := carve(&p.cols)
	c.Name = name
	return c
}

func (p *parser) number(lit numberLit) *numberLit {
	n := carve(&p.nums)
	*n = lit
	return n
}

func (p *parser) binary(op string, l, r Expr) *binaryExpr {
	b := carve(&p.bins)
	*b = binaryExpr{Op: op, L: l, R: r}
	return b
}

// maxExprDepth bounds expression nesting so hostile input (kilobytes of
// "(" or "NOT") returns an error instead of exhausting the stack — the
// invariant FuzzParse enforces.
const maxExprDepth = 200

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxExprDepth {
		return errAt(p.peek().pos, "expression nesting exceeds %d levels", maxExprDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// advance lexes the next lookahead token. After a lexing error the
// lookahead stays at EOF, so the grammar winds down, and finish reports
// the error.
func (p *parser) advance() {
	if p.err != nil {
		return
	}
	t, err := p.lex.next()
	if err != nil {
		p.err, t = err, token{kind: tokEOF, pos: len(p.lex.src)}
	}
	p.tok = t
}

func (p *parser) peek() token { return p.tok }
func (p *parser) next() token { t := p.tok; p.advance(); return t }
func (p *parser) atEOF() bool { return p.tok.kind == tokEOF }

// finish settles a parsed statement's outcome: err is the grammar's
// error, and the statement must end the input. A lexing error anywhere
// in the input takes precedence, as if the input had been lexed whole
// before parsing, so the rest is lexed when the grammar stopped early.
func (p *parser) finish(err error) error {
	if err == nil && !p.atEOF() {
		err = errAt(p.tok.pos, "unexpected %q after statement", p.tok.text)
	}
	for err != nil && p.err == nil && !p.atEOF() {
		p.advance()
	}
	if p.err != nil {
		return p.err
	}
	return err
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.tok; t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return errAt(p.tok.pos, "expected %s, got %q", kw, p.tok.text)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if t := p.tok; t.kind == tokPunct && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return errAt(p.tok.pos, "expected %q, got %q", s, p.tok.text)
	}
	return nil
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	if p.acceptKeyword("TOP") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, errAt(t.pos, "TOP wants a number, got %q", t.text)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n <= 0 {
			return nil, errAt(t.pos, "bad TOP count %q", t.text)
		}
		p.next()
		stmt.Top = n
	}
	var buf [8]SelectItem
	items := buf[:0]
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	stmt.Items = slices.Clone(items)
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokIdent {
		return nil, errAt(t.pos, "expected table name, got %q", t.text)
	}
	stmt.Table = p.next().text
	// WITH (NOLOCK) table hint — accepted and recorded, a no-op in our
	// single-writer engine, exactly as in the paper's test queries.
	if p.acceptKeyword("WITH") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("NOLOCK"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		stmt.NoLock = true
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	// LIMIT n is accepted as a trailing alias for TOP n.
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, errAt(t.pos, "LIMIT wants a number, got %q", t.text)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n <= 0 {
			return nil, errAt(t.pos, "bad LIMIT count %q", t.text)
		}
		if stmt.Top > 0 {
			return nil, errAt(t.pos, "LIMIT cannot be combined with TOP")
		}
		p.next()
		stmt.Top = n
	}
	return stmt, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.peek()
		if t.kind != tokIdent && t.kind != tokString {
			return SelectItem{}, errAt(t.pos, "expected alias, got %q", t.text)
		}
		item.Alias = p.next().text
	} else if t := p.peek(); t.kind == tokIdent {
		// bare alias: SELECT COUNT(*) n FROM t
		item.Alias = p.next().text
	}
	return item, nil
}

// Expression grammar, loosest binding first:
//
//	orExpr   := andExpr (OR andExpr)*
//	andExpr  := notExpr (AND notExpr)*
//	notExpr  := [NOT] cmpExpr
//	cmpExpr  := addExpr ((= | <> | < | <= | > | >=) addExpr)?
//	addExpr  := mulExpr ((+|-) mulExpr)*
//	mulExpr  := unary ((*|/|%) unary)*
//	unary    := [-] primary
//	primary  := number | string | NULL | aggcall | funccall | colref | (expr)
func (p *parser) expr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.orExpr()
}

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = p.binary("OR", l, r)
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = p.binary("AND", l, r)
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKeyword("NOT") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: "NOT", X: x}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokOp {
		switch t.text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return p.binary(t.text, l, r), nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = p.binary(t.text, l, r)
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		isMul := t.kind == tokPunct && t.text == "*"
		isDiv := t.kind == tokOp && (t.text == "/" || t.text == "%")
		if isMul || isDiv {
			p.next()
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			op := t.text
			l = p.binary(op, l, r)
			continue
		}
		return l, nil
	}
}

func (p *parser) unary() (Expr, error) {
	if t := p.peek(); t.kind == tokOp && (t.text == "-" || t.text == "+") {
		p.next()
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		if t.text == "+" {
			return x, nil
		}
		return &unaryExpr{Op: "-", X: x}, nil
	}
	return p.primary()
}

var aggKinds = map[string]aggKind{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax,
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if i, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return p.number(numberLit{I: i, F: float64(i), IsInt: true}), nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errAt(t.pos, "bad number %q", t.text)
		}
		return p.number(numberLit{F: f}), nil
	case tokString:
		p.next()
		return &stringLit{S: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &nullLit{}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			kind := aggKinds[t.text]
			if kind == aggCount && p.acceptPunct("*") {
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return &aggCall{Kind: aggCount}, nil
			}
			arg, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &aggCall{Kind: kind, Arg: arg}, nil
		}
		return nil, errAt(t.pos, "unexpected keyword %q", t.text)
	case tokPunct:
		if t.text == "(" {
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, errAt(t.pos, "unexpected %q", t.text)
	case tokIdent:
		// ident | ident.ident | ident(args) | ident.ident(args)
		p.next()
		name := t.text
		var t2 token // the name after the dot of a qualified name
		if p.acceptPunct(".") {
			if t2 = p.peek(); t2.kind != tokIdent && t2.kind != tokKeyword {
				return nil, errAt(t2.pos, "expected name after %q.", name)
			}
			p.next()
			if t2.pos == t.pos+len(t.text)+1 {
				name = p.lex.src[t.pos : t2.pos+len(t2.text)] // spelled without spaces
			} else {
				name = name + "." + t2.text
			}
		}
		if p.acceptPunct("(") {
			call := &funcCall{Name: name}
			if !p.acceptPunct(")") {
				var buf [4]Expr
				args := buf[:0]
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.acceptPunct(",") {
						continue
					}
					if err := p.expectPunct(")"); err != nil {
						return nil, err
					}
					break
				}
				call.Args = slices.Clone(args)
			}
			return call, nil
		}
		if t2.kind != tokEOF {
			return nil, errAt(t.pos, "qualified name %q must be a function call", t.text+"."+t2.text)
		}
		return p.column(name), nil
	}
	return nil, errAt(t.pos, "unexpected end of statement")
}
