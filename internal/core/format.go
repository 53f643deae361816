package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders the array as nested bracketed lists ("arrays can also be
// converted to and from strings", §5.1). The textual form is logical
// row-major (the last index varies fastest inside the innermost list)
// while storage remains column-major; Parse is the exact inverse.
//
// A rank-2 array with dims [2,3] therefore prints as
// [[a00,a01,a02],[a10,a11,a12]] where aij = Item(i,j).
//
// An array with no elements prints as empty lists nested down to its first
// zero-length dimension — [] for dims [0], [[]] for [3,0] as for [1,0,5] —
// in O(rank): the lengths of the dimensions around the empty one are not
// kept (a literal cannot carry them without one bracket pair per empty
// sub-list, 134 million of them for dims [134217728,0,0]), so Parse
// returns dims [1,...,1,0].
func Format(a *Array) string {
	var sb strings.Builder
	if a.Len() == 0 { // some dimension is zero
		depth := 1
		for a.Dim(depth-1) != 0 {
			depth++
		}
		sb.WriteString(strings.Repeat("[", depth))
		sb.WriteString(strings.Repeat("]", depth))
		return sb.String()
	}
	formatDim(a, &sb, make([]int, a.Rank()), 0)
	return sb.String()
}

func formatDim(a *Array, sb *strings.Builder, ix []int, dim int) {
	rank := a.Rank()
	if dim == rank {
		lin, _ := a.hdr.LinearIndex(ix)
		if a.ElemType().IsComplex() {
			v := a.ComplexAt(lin)
			fmt.Fprintf(sb, "%g%+gi", real(v), imag(v))
		} else if a.ElemType().IsInteger() {
			fmt.Fprintf(sb, "%d", a.IntAt(lin))
		} else {
			fmt.Fprintf(sb, "%g", a.FloatAt(lin))
		}
		return
	}
	sb.WriteByte('[')
	for i := 0; i < a.Dim(dim); i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		ix[dim] = i
		formatDim(a, sb, ix, dim+1)
	}
	sb.WriteByte(']')
}

// Parse builds an array from the nested-list textual form produced by
// Format. All nesting levels must be rectangular. The storage class is
// chosen automatically.
func Parse(et ElemType, s string) (*Array, error) {
	p := &strParser{s: strings.TrimSpace(s)}
	node, err := p.value()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("%w: trailing characters at offset %d", ErrBadHeader, p.pos)
	}
	dims, err := nodeDims(node)
	if err != nil {
		return nil, err
	}
	a, err := NewAuto(et, dims...)
	if err != nil {
		return nil, err
	}
	ix := make([]int, len(dims))
	if err := fillFromNode(a, node, ix, 0); err != nil {
		return nil, err
	}
	return a, nil
}

// parseNode is either a scalar (leaf) or a list of nodes.
type parseNode struct {
	leaf     bool
	re, im   float64
	children []*parseNode
}

// maxParseDepth bounds nesting in array literals; list nesting maps to
// array rank, so anything past a generous cap is hostile input, not an
// array.
const maxParseDepth = 64

type strParser struct {
	s     string
	pos   int
	depth int
}

func (p *strParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t' || p.s[p.pos] == '\n') {
		p.pos++
	}
}

func (p *strParser) value() (*parseNode, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return nil, fmt.Errorf("core: unexpected end of array literal")
	}
	if p.s[p.pos] == '[' {
		p.depth++
		if p.depth > maxParseDepth {
			return nil, fmt.Errorf("%w: literal nesting exceeds %d levels", ErrShape, maxParseDepth)
		}
		defer func() { p.depth-- }()
		p.pos++
		n := &parseNode{}
		for {
			p.skipSpace()
			if p.pos < len(p.s) && p.s[p.pos] == ']' {
				p.pos++
				return n, nil
			}
			child, err := p.value()
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child)
			p.skipSpace()
			if p.pos < len(p.s) && p.s[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.pos < len(p.s) && p.s[p.pos] == ']' {
				p.pos++
				return n, nil
			}
			return nil, fmt.Errorf("core: expected ',' or ']' at offset %d", p.pos)
		}
	}
	return p.scalar()
}

func (p *strParser) scalar() (*parseNode, error) {
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == ',' || c == ']' || c == ' ' || c == '\t' || c == '\n' {
			break
		}
		p.pos++
	}
	tok := p.s[start:p.pos]
	if tok == "" {
		return nil, fmt.Errorf("core: empty scalar at offset %d", start)
	}
	// Complex literal: "<re>+<im>i" or "<re>-<im>i".
	if strings.HasSuffix(tok, "i") {
		body := tok[:len(tok)-1]
		// Find the sign splitting re and im, skipping a leading sign and
		// exponent signs (e.g. 1e-3+2e-4i).
		for k := len(body) - 1; k > 0; k-- {
			if (body[k] == '+' || body[k] == '-') && body[k-1] != 'e' && body[k-1] != 'E' {
				re, err1 := strconv.ParseFloat(body[:k], 64)
				im, err2 := strconv.ParseFloat(body[k:], 64)
				if err1 == nil && err2 == nil {
					return &parseNode{leaf: true, re: re, im: im}, nil
				}
				break
			}
		}
		if im, err := strconv.ParseFloat(body, 64); err == nil {
			return &parseNode{leaf: true, im: im}, nil
		}
		return nil, fmt.Errorf("core: bad complex literal %q", tok)
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return nil, fmt.Errorf("core: bad numeric literal %q: %v", tok, err)
	}
	return &parseNode{leaf: true, re: v}, nil
}

// nodeDims derives the rectangular shape of a parsed literal.
func nodeDims(n *parseNode) ([]int, error) {
	if n.leaf {
		return nil, nil
	}
	dims := []int{len(n.children)}
	if len(n.children) == 0 {
		return dims, nil
	}
	sub, err := nodeDims(n.children[0])
	if err != nil {
		return nil, err
	}
	for _, c := range n.children[1:] {
		cd, err := nodeDims(c)
		if err != nil {
			return nil, err
		}
		if len(cd) != len(sub) {
			return nil, fmt.Errorf("%w: ragged array literal", ErrShape)
		}
		for i := range cd {
			if cd[i] != sub[i] {
				return nil, fmt.Errorf("%w: ragged array literal", ErrShape)
			}
		}
	}
	return append(dims, sub...), nil
}

func fillFromNode(a *Array, n *parseNode, ix []int, dim int) error {
	if n.leaf {
		lin, err := a.hdr.LinearIndex(ix)
		if err != nil {
			return err
		}
		if a.ElemType().IsComplex() {
			a.SetComplexAt(lin, complex(n.re, n.im))
		} else {
			a.SetFloatAt(lin, n.re)
		}
		return nil
	}
	for i, c := range n.children {
		ix[dim] = i
		if err := fillFromNode(a, c, ix, dim+1); err != nil {
			return err
		}
	}
	return nil
}
