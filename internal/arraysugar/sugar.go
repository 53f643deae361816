// Package arraysugar implements the pre-parser the paper's conclusions
// wish for (§8): "A syntactic sugar to T-SQL and a pre-parser would be
// desirable that translates a special flavor of SQL designed for array
// notation to standard T-SQL with function calls. This could be achieved
// by writing a specialized .NET database connector that provides the
// translation."
//
// Translate rewrites subscript expressions on known array columns into
// the §5.1 function surface:
//
//	v[3]          ->  FloatArray.Item_1(v, 3)
//	m[1, 0]       ->  FloatArray.Item_2(m, 1, 0)
//	a[1:4]        ->  FloatArray.Subarray(a, IntArray.Vector_1(1),
//	                      IntArray.Vector_1((4)-(1)), 0)
//	c[2, 0:3]     ->  FloatArrayMax.Subarray(c, IntArray.Vector_2(2, 0),
//	                      IntArray.Vector_2(1, (3)-(0)), 1)   -- collapse
//
// Index expressions may themselves be arbitrary (they are copied through
// and re-translated recursively), and slices follow Go's half-open
// convention. The column→schema mapping plays the role of the catalog
// metadata a real connector would read.
package arraysugar

import (
	"fmt"
	"strings"
)

// offsetError is a translation error with statement offset.
type offsetError struct {
	Pos int
	Msg string
}

func (e *offsetError) Error() string {
	return fmt.Sprintf("arraysugar: at offset %d: %s", e.Pos, e.Msg)
}

// Columns maps column names (case-insensitive) to their array schema
// ("FloatArray", "FloatArrayMax", "IntArray", ...).
type Columns map[string]string

func (c Columns) schemaFor(name string) (string, bool) {
	if s, ok := c[name]; ok {
		return s, true
	}
	for k, s := range c {
		if strings.EqualFold(k, name) {
			return s, true
		}
	}
	return "", false
}

// maxSubscriptDepth bounds how deeply subscripts may nest inside each
// other (a[b[c[...]]]). Real queries nest once or twice; the cap turns
// pathological input into an error instead of unbounded recursion — the
// invariant FuzzTranslate enforces.
const maxSubscriptDepth = 64

// Translate rewrites all subscript sugar in query. Text inside string
// literals and comments is left untouched. Subscripts on identifiers
// not present in cols are an error (catching typos early, as a connector
// with catalog access would).
func Translate(query string, cols Columns) (string, error) {
	return translateAt(query, cols, 0)
}

func translateAt(query string, cols Columns, depth int) (string, error) {
	if depth > maxSubscriptDepth {
		return "", &offsetError{Pos: 0, Msg: fmt.Sprintf("subscript nesting exceeds %d levels", maxSubscriptDepth)}
	}
	t := &translator{src: query, cols: cols, depth: depth}
	out, err := t.run(0, len(query))
	if err != nil {
		return "", err
	}
	return out, nil
}

type translator struct {
	src   string
	cols  Columns
	depth int
}

// run translates src[from:to].
func (t *translator) run(from, to int) (string, error) {
	var sb strings.Builder
	i := from
	for i < to {
		c := t.src[i]
		switch {
		case c == '\'':
			end, err := t.skipString(i)
			if err != nil {
				return "", err
			}
			sb.WriteString(t.src[i:end])
			i = end
		case c == '-' && i+1 < to && t.src[i+1] == '-':
			end := i
			for end < to && t.src[end] != '\n' {
				end++
			}
			sb.WriteString(t.src[i:end])
			i = end
		case isIdentStart(c):
			start := i
			for i < to && isIdentPart(t.src[i]) {
				i++
			}
			name := t.src[start:i]
			// Lookahead (skipping spaces) for '['.
			j := i
			for j < to && (t.src[j] == ' ' || t.src[j] == '\t' || t.src[j] == '\n' || t.src[j] == '\r') {
				j++
			}
			if j < to && t.src[j] == '[' {
				schema, ok := t.cols.schemaFor(name)
				if !ok {
					return "", &offsetError{Pos: start, Msg: fmt.Sprintf("subscript on unknown array column %q", name)}
				}
				close, err := t.matchBracket(j)
				if err != nil {
					return "", err
				}
				call, err := t.rewriteSubscript(schema, name, j+1, close)
				if err != nil {
					return "", err
				}
				sb.WriteString(call)
				i = close + 1
			} else {
				sb.WriteString(name)
			}
		default:
			sb.WriteByte(c)
			i++
		}
	}
	return sb.String(), nil
}

// skipString returns the index just past a quoted literal starting at i.
func (t *translator) skipString(i int) (int, error) {
	j := i + 1
	for j < len(t.src) {
		if t.src[j] == '\'' {
			if j+1 < len(t.src) && t.src[j+1] == '\'' {
				j += 2
				continue
			}
			return j + 1, nil
		}
		j++
	}
	return 0, &offsetError{Pos: i, Msg: "unterminated string literal"}
}

// matchBracket returns the index of the ']' matching the '[' at i,
// honouring nesting and string literals.
func (t *translator) matchBracket(i int) (int, error) {
	depth := 0
	j := i
	for j < len(t.src) {
		switch t.src[j] {
		case '\'':
			end, err := t.skipString(j)
			if err != nil {
				return 0, err
			}
			j = end
			continue
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				return j, nil
			}
		}
		j++
	}
	return 0, &offsetError{Pos: i, Msg: "unbalanced '['"}
}

// subscriptDim is one comma-separated dimension: an index or a lo:hi
// slice (either side may be empty only for errors; both required here).
type subscriptDim struct {
	isSlice bool
	a, b    string // index, or lo/hi
	pos     int
}

// rewriteSubscript turns col[...] (contents at src[from:to]) into the
// equivalent function call.
func (t *translator) rewriteSubscript(schema, col string, from, to int) (string, error) {
	dims, err := t.splitDims(from, to)
	if err != nil {
		return "", err
	}
	if len(dims) == 0 {
		return "", &offsetError{Pos: from, Msg: "empty subscript"}
	}
	if len(dims) > 6 {
		return "", &offsetError{Pos: from, Msg: fmt.Sprintf("%d subscripts exceed the 6-dimension limit", len(dims))}
	}
	// Recursively translate each dimension expression (subscripts can
	// nest: a[b[0]]).
	for i := range dims {
		if dims[i].a, err = translateAt(dims[i].a, t.cols, t.depth+1); err != nil {
			return "", err
		}
		if dims[i].isSlice {
			if dims[i].b, err = translateAt(dims[i].b, t.cols, t.depth+1); err != nil {
				return "", err
			}
		}
	}
	anySlice := false
	for _, d := range dims {
		if d.isSlice {
			anySlice = true
			break
		}
	}
	if !anySlice {
		// Pure item access -> Item_N.
		args := make([]string, 0, len(dims))
		for _, d := range dims {
			args = append(args, strings.TrimSpace(d.a))
		}
		return fmt.Sprintf("%s.Item_%d(%s, %s)", schema, len(dims), col, strings.Join(args, ", ")), nil
	}
	// Mixed access -> Subarray with collapse=1 so bare indices drop out.
	offs := make([]string, 0, len(dims))
	sizes := make([]string, 0, len(dims))
	for _, d := range dims {
		a := strings.TrimSpace(d.a)
		if d.isSlice {
			b := strings.TrimSpace(d.b)
			if a == "" || b == "" {
				return "", &offsetError{Pos: d.pos, Msg: "slice bounds must both be given (lo:hi)"}
			}
			offs = append(offs, a)
			sizes = append(sizes, fmt.Sprintf("(%s)-(%s)", b, a))
		} else {
			offs = append(offs, a)
			sizes = append(sizes, "1")
		}
	}
	n := len(dims)
	return fmt.Sprintf("%s.Subarray(%s, IntArray.Vector_%d(%s), IntArray.Vector_%d(%s), 1)",
		schema, col, n, strings.Join(offs, ", "), n, strings.Join(sizes, ", ")), nil
}

// splitDims splits the bracket contents on top-level commas, and each
// part on a top-level ':'.
func (t *translator) splitDims(from, to int) ([]subscriptDim, error) {
	var dims []subscriptDim
	depth := 0
	start := from
	colon := -1
	flush := func(end int) error {
		raw := t.src[start:end]
		if strings.TrimSpace(raw) == "" {
			return &offsetError{Pos: start, Msg: "empty subscript dimension"}
		}
		d := subscriptDim{pos: start}
		if colon >= 0 {
			d.isSlice = true
			d.a = t.src[start:colon]
			d.b = t.src[colon+1 : end]
		} else {
			d.a = raw
		}
		dims = append(dims, d)
		colon = -1
		return nil
	}
	j := from
	for j < to {
		switch t.src[j] {
		case '\'':
			end, err := t.skipString(j)
			if err != nil {
				return nil, err
			}
			j = end
			continue
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				if err := flush(j); err != nil {
					return nil, err
				}
				start = j + 1
			}
		case ':':
			if depth == 0 {
				if colon >= 0 {
					return nil, &offsetError{Pos: j, Msg: "more than one ':' in a subscript dimension"}
				}
				colon = j
			}
		}
		j++
	}
	if err := flush(to); err != nil {
		return nil, err
	}
	return dims, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '@' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '.'
}
