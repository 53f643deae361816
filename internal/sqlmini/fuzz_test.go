package sqlmini

import (
	"strings"
	"testing"
)

// FuzzParse drives the lexer and parser with arbitrary input. The
// invariants: Parse never panics (no slice overruns, no unbounded
// recursion) — it returns a statement or an error — and a statement it
// returns renders (selectString) to text that parses back to a
// statement rendering the same text. The seed corpus is the golden
// query set plus shapes chosen to reach every lexer state.
func FuzzParse(f *testing.F) {
	for _, q := range goldenQueries {
		f.Add(q)
	}
	for _, q := range []string{
		"",
		"SELECT",
		"SELECT * FROM t",
		"SELECT TOP 0 x FROM t",
		"SELECT -1e309, .5, 1.2e-3 FROM t",
		"SELECT 'it''s' FROM t",
		"SELECT 'unterminated FROM t",
		"SELECT dbo.f(a, b, c) FROM t WITH (NOLOCK) WHERE NOT a = 1 LIMIT 2",
		"SELECT ((((((1)))))) FROM t -- comment",
		"SELECT a FROM t WHERE a <> b AND a <= b OR a >= b",
		"SELECT " + strings.Repeat("(", 64) + "1" + strings.Repeat(")", 64) + " FROM t",
		"SELECT " + strings.Repeat("NOT ", 300) + "1 FROM t",
		"SELECT COUNT(*) n FROM t WHERE x % 2 = 0",
		"SELECT NULL, -x, +x FROM éé",
		"SELECT - -x, -(NOT x), (NOT a) = 1, (NOT a) + 1 FROM t",
		"SELECT a AS 'two words', b AS 'it''s', c AS 'select', d AS '' FROM t",
		"SELECT dbo . MAX(x), Schema.Func(y) FROM t LIMIT 3",
		"SELECT " + strings.Repeat("1 + ", 250) + "1 FROM t",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err == nil && stmt == nil {
			t.Fatalf("Parse(%q) returned neither statement nor error", src)
		}
		if err != nil && stmt != nil {
			t.Fatalf("Parse(%q) returned both statement and error %v", src, err)
		}
		if err != nil {
			return
		}
		text := selectString(stmt)
		again, err := Parse(text)
		if err != nil {
			// The rendering parenthesizes every operator, so a long flat
			// chain (1 + 1 + … + 1) nests deeper than it was written: the
			// nesting bound is the one error a rendering may meet.
			if strings.Contains(err.Error(), "nesting exceeds") {
				return
			}
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", src, text, err)
		}
		if got := selectString(again); got != text {
			t.Fatalf("Parse(%q) renders %q, which parses and renders as %q", src, text, got)
		}
	})
}
