package sqlmini

import (
	"strconv"
	"strings"
)

// Parse parses a single SELECT statement.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, errAt(p.peek().pos, "unexpected %q after statement", p.peek().text)
	}
	return stmt, nil
}

// ParseStatement parses any supported statement: SELECT, INSERT,
// UPDATE or DELETE.
func ParseStatement(src string) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmt Statement
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
		return nil, errAt(t.pos, "expected SELECT, INSERT, UPDATE, DELETE or EXPLAIN, got %q", t.text)
	}
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, errAt(p.peek().pos, "unexpected %q after statement", p.peek().text)
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

type parser struct {
	toks  []token
	i     int
	depth int
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

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return errAt(p.peek().pos, "expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if t := p.peek(); t.kind == tokPunct && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return errAt(p.peek().pos, "expected %q, got %q", s, p.peek().text)
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
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptPunct(",") {
			break
		}
	}
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
		l = &binaryExpr{Op: "OR", L: l, R: r}
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
		l = &binaryExpr{Op: "AND", L: l, R: r}
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
			return &binaryExpr{Op: t.text, L: l, R: r}, nil
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
			l = &binaryExpr{Op: t.text, L: l, R: r}
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
			l = &binaryExpr{Op: op, L: l, R: r}
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
			return &numberLit{I: i, F: float64(i), IsInt: true}, nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errAt(t.pos, "bad number %q", t.text)
		}
		return &numberLit{F: f}, nil
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
		qualified := false
		if p.acceptPunct(".") {
			t2 := p.peek()
			if t2.kind != tokIdent && t2.kind != tokKeyword {
				return nil, errAt(t2.pos, "expected name after %q.", name)
			}
			p.next()
			name = name + "." + t2.text
			qualified = true
		}
		if p.acceptPunct("(") {
			call := &funcCall{Name: strings.ToLower(name)}
			if !p.acceptPunct(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.acceptPunct(",") {
						continue
					}
					if err := p.expectPunct(")"); err != nil {
						return nil, err
					}
					break
				}
			}
			return call, nil
		}
		if qualified {
			return nil, errAt(t.pos, "qualified name %q must be a function call", name)
		}
		return &columnRef{Name: name}, nil
	}
	return nil, errAt(t.pos, "unexpected end of statement")
}
