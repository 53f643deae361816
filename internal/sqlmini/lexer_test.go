package sqlmini

import (
	"strings"
	"testing"
)

// The tokenizer the parser used before it lexed on demand, kept as the
// reference the streaming lexer is held to (FuzzLexMatchesReference): a
// pass over the whole statement into a token slice, recognising keywords
// through an upper-cased copy and a map.

var refKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "WITH": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "TOP": true,
	"NULL": true, "NOLOCK": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true, "LIMIT": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"EXPLAIN": true, "ANALYZE": true,
}

type refLexer struct {
	src string
	pos int
}

func (l *refLexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

func (l *refLexer) next() (token, error) {
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
		if refKeywords[upper] {
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
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
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
	l := &refLexer{src: src}
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

// lexSeeds reach every lexer state: each token class, keywords in mixed
// case, escapes, comments, every error.
var lexSeeds = []string{
	"",
	"SELECT",
	"select Select sElEcT selectx _select @a #b c$1 __",
	"SELECT * FROM t",
	"SELECT TOP 0 x FROM t",
	"SELECT -1e309, .5, 1.2e-3, 1e, 2E+5, 3.4.5, 7. FROM t",
	"SELECT 'it''s', '', '''', 'a''' FROM t",
	"SELECT 'unterminated FROM t",
	"SELECT 'x'' FROM t",
	"SELECT dbo.f(a, b, c) FROM t WITH (NOLOCK) WHERE NOT a = 1 LIMIT 2",
	"SELECT ((((((1)))))) FROM t -- comment",
	"SELECT a -- comment\n, b\r\n\tFROM t--",
	"SELECT a FROM t WHERE a <> b AND a <= b OR a >= b AND a < b OR a > b AND a % b / c",
	"SELECT COUNT(*) n FROM t WHERE x % 2 = 0",
	"SELECT NULL, -x, +x FROM éé",
	"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
	"UPDATE t SET v = 1 WHERE id = 2; DELETE FROM t",
	"EXPLAIN ANALYZE SELECT avg(x), Min(x), mAx(x), sum(x) FROM t",
	"SELECT a ! b",
	"SELECT \x00",
}

// FuzzLexMatchesReference holds the on-demand lexer to the up-front
// tokenizer it replaced: the same token kinds, texts and positions, and
// the same error at the same offset.
func FuzzLexMatchesReference(f *testing.F) {
	for _, q := range goldenQueries {
		f.Add(q)
	}
	for _, q := range lexSeeds {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := lexAll(src)
		l := lexer{src: src}
		var got []token
		var err error
		for {
			tok, e := l.next()
			if e != nil {
				err = e
				break
			}
			got = append(got, tok)
			if tok.kind == tokEOF {
				break
			}
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("lex %q: error %v, reference %v", src, err, wantErr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("lex %q: %d tokens, reference %d", src, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.kind != w.kind || g.text != w.text || g.pos != w.pos {
				t.Fatalf("lex %q: token %d = {%d %q @%d}, reference {%d %q @%d}",
					src, i, g.kind, g.text, g.pos, w.kind, w.text, w.pos)
			}
		}
	})
}
