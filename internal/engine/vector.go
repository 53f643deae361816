package engine

// Vector is a typed column of values: what the batch executor moves
// between operators, what Cursor.FillBatch decodes rows into and what
// FuncRegistry.CallBatch takes and fills. A BIGINT column is a []int64,
// a FLOAT column a []float64 and a binary column a [][]byte — 8-byte
// cells for the numeric types instead of a 48-byte Value per cell —
// with NULLs in a bitmap beside the data.
//
// Kind names the slice that holds the rows; the other two are unused.
// Kind 0 means no row has a value (yet): every row is NULL. Const marks
// a one-row vector that stands for every row of the batch (literals,
// aggregate results), so a constant costs nothing per row.
//
// Binary rows are slices into memory the vector does not necessarily
// own: the vector's arena (scan fills and UDF results are copied there),
// a literal's bytes, the copy a MAX-column materialize read, or the
// blob refs of a scanned MAX column (ColMaxRef rows). None of them is a
// buffer-pool page. Whoever fills the vector decides; whoever reads
// it must be done before the next Reset.
//
// Mixed kinds in one vector are part of the contract. A UDF has no
// declared result type: a user function may return a BIGINT for one row
// and a FLOAT for the next, or VARBINARY beside VARBINARY(MAX). Set
// keeps such a result exact, as a row-wise Call does, by switching the
// vector to per-row kinds (Uniform reports false); kernels take their
// typed loops only over uniform vectors and read anything else through
// Value.
type Vector struct {
	Kind  ColType
	Const bool
	I     []int64
	F     []float64
	B     [][]byte

	n     int       // row count (1 for a constant)
	nulls []uint64  // bit i set = row i is NULL; bits at or past the row count are zero
	kinds []ColType // per-row kinds of a non-uniform vector, else empty
	arena []byte    // backing store for rows copied in by hold
}

// minVectorArena is the size of a vector's first arena chunk.
const minVectorArena = 512

// SetConst makes v the one-row vector standing for val on every row. A
// binary val is aliased, not copied.
func (v *Vector) SetConst(val Value) {
	v.Reset(val.Kind, 1)
	v.Set(0, val)
	v.Const = true
}

// Reset empties v and sizes it for n rows of kind. Row contents are
// unspecified until written; no row is NULL.
func (v *Vector) Reset(kind ColType, n int) {
	v.Kind, v.Const, v.n = kind, false, n
	v.nulls, v.kinds, v.arena = v.nulls[:0], v.kinds[:0], v.arena[:0]
	v.I, v.F, v.B = v.I[:0], v.F[:0], v.B[:0]
	v.grow(kind, n)
}

// grow makes the slice that holds rows of kind at least n long.
func (v *Vector) grow(kind ColType, n int) {
	switch kind {
	case ColInt64:
		if cap(v.I) < n {
			v.I = make([]int64, n)
		}
		v.I = v.I[:n]
	case ColFloat64:
		if cap(v.F) < n {
			v.F = make([]float64, n)
		}
		v.F = v.F[:n]
	case ColVarBinary, ColVarBinaryMax, ColMaxRef:
		if cap(v.B) < n {
			v.B = make([][]byte, n)
		}
		v.B = v.B[:n]
	}
}

// Mask returns the index mask of v's rows: row i of the batch is element
// i&Mask() of the data slices, so a typed loop reads a constant vector's
// single element without a branch.
func (v *Vector) Mask() int {
	if v.Const {
		return 0
	}
	return -1
}

// Uniform reports whether every non-NULL row has kind Kind.
func (v *Vector) Uniform() bool { return len(v.kinds) == 0 }

// HasNulls reports whether any row may be NULL.
func (v *Vector) HasNulls() bool { return len(v.nulls) > 0 }

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool {
	i &= v.Mask()
	w := i >> 6
	return w < len(v.nulls) && v.nulls[w]>>(uint(i)&63)&1 != 0
}

// SetNull makes row i NULL.
func (v *Vector) SetNull(i int) {
	w := i >> 6
	for len(v.nulls) <= w {
		v.nulls = append(v.nulls, 0)
	}
	v.nulls[w] |= 1 << (uint(i) & 63)
}

// OrNulls makes every row of v NULL that is NULL in the non-constant
// vector a.
func (v *Vector) OrNulls(a *Vector) {
	for len(v.nulls) < len(a.nulls) {
		v.nulls = append(v.nulls, 0)
	}
	for w, bits := range a.nulls {
		v.nulls[w] |= bits
	}
}

// Value returns row i as a Value. Binary values alias the row's bytes.
func (v *Vector) Value(i int) Value {
	i &= v.Mask()
	if v.IsNull(i) {
		return Null
	}
	kind := v.Kind
	if len(v.kinds) > 0 {
		kind = v.kinds[i]
	}
	switch kind {
	case ColInt64:
		return Value{Kind: kind, I: v.I[i]}
	case ColFloat64:
		return Value{Kind: kind, F: v.F[i]}
	case ColVarBinary, ColVarBinaryMax, ColMaxRef:
		return Value{Kind: kind, B: v.B[i]}
	}
	return Null
}

// Set stores val as row i, aliasing a binary val's bytes.
func (v *Vector) Set(i int, val Value) {
	if val.Kind == 0 {
		v.SetNull(i)
		return
	}
	if val.Kind != v.Kind {
		v.retype(val.Kind)
	}
	switch val.Kind {
	case ColInt64:
		v.I[i] = val.I
	case ColFloat64:
		v.F[i] = val.F
	case ColVarBinary, ColVarBinaryMax, ColMaxRef:
		v.B[i] = val.B
	}
	if len(v.kinds) > 0 {
		v.kinds[i] = val.Kind
	}
}

// retype prepares v for a row of a kind other than Kind. While no row
// has a value yet the vector simply takes the new kind; after that it
// records kinds per row.
func (v *Vector) retype(kind ColType) {
	v.grow(kind, v.n)
	if v.Kind == 0 {
		v.Kind = kind
		return
	}
	for len(v.kinds) < v.n {
		v.kinds = append(v.kinds, v.Kind)
	}
}

// hold copies src into v's arena and returns the stable copy, valid
// until the next Reset. Growing the arena allocates a new chunk twice
// the size (rows already held keep the old chunk alive through their own
// slices), so a point query holds a few hundred bytes and a scan's arena
// settles at one chunk that fits a whole batch.
func (v *Vector) hold(src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	if len(v.arena)+len(src) > cap(v.arena) {
		size := 2 * cap(v.arena)
		if size < minVectorArena {
			size = minVectorArena
		}
		if size < len(src) {
			size = len(src)
		}
		v.arena = make([]byte, 0, size)
	}
	off := len(v.arena)
	v.arena = v.arena[:off+len(src)]
	dst := v.arena[off : off+len(src) : off+len(src)]
	copy(dst, src)
	return dst
}

// Compact keeps only the rows named by sel (ascending row indices),
// moving them to the front in place.
func (v *Vector) Compact(sel []int) {
	if v.Const {
		return
	}
	compactRows(v.I, sel)
	compactRows(v.F, sel)
	compactRows(v.B, sel)
	compactRows(v.kinds, sel)
	v.n = len(sel)
	if len(v.nulls) == 0 {
		return
	}
	// j <= i and both ascend, so bit i is always read before any write
	// could reach it; past the bitmap's end both bits are zero already.
	for j, i := range sel {
		if j>>6 >= len(v.nulls) {
			break
		}
		var bit uint64
		if w := i >> 6; w < len(v.nulls) {
			bit = v.nulls[w] >> (uint(i) & 63) & 1
		}
		v.nulls[j>>6] = v.nulls[j>>6]&^(1<<(uint(j)&63)) | bit<<(uint(j)&63)
	}
	if w := v.n >> 6; w < len(v.nulls) {
		v.nulls[w] &= 1<<(uint(v.n)&63) - 1
		for w++; w < len(v.nulls); w++ {
			v.nulls[w] = 0
		}
	}
}

// compactRows moves the selected rows of one data slice to its front; a
// slice the vector does not use is empty.
func compactRows[T any](rows []T, sel []int) {
	if len(rows) == 0 {
		return
	}
	for j, i := range sel {
		rows[j] = rows[i]
	}
}
