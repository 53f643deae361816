// Package sqlmini implements a small SQL dialect sufficient to run the
// paper's workload verbatim: single-table SELECT statements with scalar
// and aggregate expressions, schema-qualified user-defined function calls
// (FloatArray.Item_1(v, 0)), WITH (NOLOCK) table hints, and WHERE
// filters, executed as clustered index scans over the sqlarray engine.
package sqlmini

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct   // ( ) , . *
	tokOp      // + - / = <> < <= > >=
	tokKeyword // SELECT FROM WHERE WITH AS AND OR NOT TOP LIMIT NULL
)

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "WITH": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "TOP": true,
	"NULL": true, "NOLOCK": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true, "LIMIT": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"EXPLAIN": true, "ANALYZE": true,
}

type token struct {
	kind tokenKind
	text string // keywords upper-cased; identifiers as written
	pos  int
}

// offsetError is a parse/execution error carrying the statement offset.
type offsetError struct {
	Pos int
	Msg string
}

func (e *offsetError) Error() string { return fmt.Sprintf("sql: at offset %d: %s", e.Pos, e.Msg) }

func errAt(pos int, format string, args ...any) error {
	return &offsetError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src string
	pos int
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '@' || c == '#' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		upper := strings.ToUpper(word)
		if keywords[upper] {
			return token{kind: tokKeyword, text: upper, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		seenDot, seenExp := false, false
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if isDigit(c) {
				l.pos++
				continue
			}
			if c == '.' && !seenDot && !seenExp {
				seenDot = true
				l.pos++
				continue
			}
			if (c == 'e' || c == 'E') && !seenExp && l.pos > start {
				seenExp = true
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				continue
			}
			break
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, errAt(start, "unterminated string literal")
			}
			if l.src[l.pos] == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' { // escaped quote
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			sb.WriteByte(l.src[l.pos])
			l.pos++
		}
		return token{kind: tokString, text: sb.String(), pos: start}, nil
	case c == '(' || c == ')' || c == ',' || c == '.' || c == '*':
		l.pos++
		return token{kind: tokPunct, text: string(c), pos: start}, nil
	case c == '+' || c == '-' || c == '/' || c == '%':
		l.pos++
		return token{kind: tokOp, text: string(c), pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, text: "=", pos: start}, nil
	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
			return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
		}
		return token{kind: tokOp, text: "<", pos: start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: ">=", pos: start}, nil
		}
		return token{kind: tokOp, text: ">", pos: start}, nil
	}
	return token{}, errAt(start, "unexpected character %q", c)
}

// lexAll tokenizes the whole statement up front.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
