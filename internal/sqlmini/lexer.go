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
	tokOp      // + - / % = <> < <= > >=
	tokKeyword // one of keywords
)

// keywords are the reserved words, spelled as their tokens carry them.
var keywords = [...]string{
	"SELECT", "FROM", "WHERE", "WITH", "AS", "AND", "OR", "NOT", "TOP",
	"NULL", "NOLOCK", "COUNT", "SUM", "AVG", "MIN", "MAX", "LIMIT",
	"INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "EXPLAIN", "ANALYZE",
}

// keywordsOfLen lists the keywords of each length.
var keywordsOfLen = func() (t [8][]string) {
	for _, kw := range keywords {
		t[len(kw)] = append(t[len(kw)], kw)
	}
	return t
}()

// keyword returns the keyword word spells in any letter case, or "". It
// compares in place: looking a word up costs no copy.
func keyword(word string) string {
	if len(word) >= len(keywordsOfLen) {
		return ""
	}
	for _, kw := range keywordsOfLen[len(word)] {
		// kw is upper-case letters: clearing bit 5 upper-cases a letter.
		if kw[0] == word[0]&^0x20 && strings.EqualFold(kw, word) {
			return kw
		}
	}
	return ""
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

// lexer hands the parser one token at a time. Every token's text but an
// escaped string literal's is a slice of src or a keyword's spelling in
// keywords, so lexing allocates nothing.
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
	kind := tokOp
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if kw := keyword(word); kw != "" {
			return token{kind: tokKeyword, text: kw, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		l.number()
		kind = tokNumber
	case c == '\'':
		return l.stringLit()
	case c == '(' || c == ')' || c == ',' || c == '.' || c == '*':
		l.pos++
		kind = tokPunct
	case c == '+' || c == '-' || c == '/' || c == '%' || c == '=':
		l.pos++
	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
		}
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
	default:
		return token{}, errAt(start, "unexpected character %q", c)
	}
	return token{kind: kind, text: l.src[start:l.pos], pos: start}, nil
}

// number advances over a numeric literal: digits with at most one '.'
// and an optional exponent; the parser converts and checks the text.
func (l *lexer) number() {
	start := l.pos
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
		return
	}
}

// stringLit lexes a quoted literal at l.pos; a doubled quote stands for
// one. The text is a slice of src unless the literal has such escapes.
func (l *lexer) stringLit() (token, error) {
	start := l.pos
	var sb strings.Builder
	from := start + 1
	for i := from; i < len(l.src); i++ {
		if l.src[i] != '\'' {
			continue
		}
		if i+1 < len(l.src) && l.src[i+1] == '\'' { // escaped quote
			sb.WriteString(l.src[from : i+1])
			i++
			from = i + 1
			continue
		}
		l.pos = i + 1
		text := l.src[from:i]
		if sb.Len() > 0 {
			sb.WriteString(text)
			text = sb.String()
		}
		return token{kind: tokString, text: text, pos: start}, nil
	}
	return token{}, errAt(start, "unterminated string literal")
}
