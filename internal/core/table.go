package core

import "fmt"

// Builder assembles an array from row-by-row (index, value) data — the
// functionality behind the paper's Concat aggregate and its faster
// query-driven UDF replacement (§4.2, §5.1). Cells may arrive in any
// order; unset cells remain zero.
type Builder struct {
	arr  *Array
	seen int
}

// NewBuilder prepares an array of the given shape to be filled cell by
// cell. The dims vector plays the role of the @l IntArray.Vector_2
// argument of the T-SQL Concat example.
func NewBuilder(class StorageClass, et ElemType, dims ...int) (*Builder, error) {
	a, err := New(class, et, dims...)
	if err != nil {
		return nil, err
	}
	return &Builder{arr: a}, nil
}

// Set stores value v at the multi-dimensional index ix.
func (b *Builder) Set(v float64, ix ...int) error {
	if err := b.arr.UpdateItem(v, ix...); err != nil {
		return err
	}
	b.seen++
	return nil
}

// SetVec stores v at an index given as an index-vector array, the exact
// shape of the Concat aggregate's per-row (ix, v) inputs.
func (b *Builder) SetVec(ix *Array, v float64) error {
	return b.Set(v, ix.Ints()...)
}

// SetLinear stores v at column-major linear element index i.
func (b *Builder) SetLinear(i int, v float64) error {
	if i < 0 || i >= b.arr.Len() {
		return fmt.Errorf("%w: linear index %d outside [0,%d)", ErrBounds, i, b.arr.Len())
	}
	b.arr.SetFloatAt(i, v)
	b.seen++
	return nil
}

// Array returns the assembled array. The builder may keep being used;
// the returned array shares storage with it.
func (b *Builder) Array() *Array { return b.arr }

// Cell is one row of the tabular form of an array: the multi-dimensional
// index and the element value, as produced by the T-SQL ToTable /
// MatrixToTable table-valued functions.
type Cell struct {
	Index []int
	Value float64
}

// ToTable converts the array to its tabular form. For large arrays
// prefer Walk, which avoids materializing every row.
func (a *Array) ToTable() []Cell {
	out := make([]Cell, a.Len())
	i := 0
	a.Walk(func(ix []int, v float64) bool {
		out[i] = Cell{Index: append([]int(nil), ix...), Value: v}
		i++
		return true
	})
	return out
}

// Walk visits every element in column-major order, passing the
// multi-dimensional index and the value. The callback's index slice is
// reused between calls; copy it to retain. Return false to stop early.
func (a *Array) Walk(f func(ix []int, v float64) bool) {
	rank := a.Rank()
	ix := make([]int, rank)
	for lin, n := 0, a.Len(); lin < n; lin++ {
		if !f(ix, a.FloatAt(lin)) {
			return
		}
		for k := 0; k < rank; k++ {
			ix[k]++
			if ix[k] < a.hdr.Dims[k] {
				break
			}
			ix[k] = 0
		}
	}
}
