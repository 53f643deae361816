package core

import "fmt"

// Run describes one contiguous byte range of a source blob that a
// subarray extraction needs. Because elements are column-major, a
// contiguous subarray decomposes into runs along the first dimension;
// the blob store uses these to issue partial reads instead of fetching
// the whole out-of-page blob (§3.3: the stream wrapper "supports reading
// only parts of the binary data", which "can significantly speed up
// certain array subsetting operations").
type Run struct {
	SrcOff int // byte offset into the source payload
	DstOff int // byte offset into the destination payload
	Len    int // run length in bytes
}

// SubarrayPlan computes the contiguous runs needed to extract a subarray
// at the given offset with the given size from an array shaped like h.
// offset and size must both have h.Rank() entries.
func SubarrayPlan(h Header, offset, size []int) ([]Run, error) {
	rank := h.Rank()
	if len(offset) != rank || len(size) != rank {
		return nil, fmt.Errorf("%w: offset/size rank %d/%d for rank-%d array",
			ErrRank, len(offset), len(size), rank)
	}
	for k := 0; k < rank; k++ {
		if size[k] <= 0 {
			return nil, fmt.Errorf("%w: size[%d] = %d must be positive", ErrBounds, k, size[k])
		}
		if offset[k] < 0 || offset[k]+size[k] > h.Dims[k] {
			return nil, fmt.Errorf("%w: dim %d: [%d,%d) outside [0,%d)",
				ErrBounds, k, offset[k], offset[k]+size[k], h.Dims[k])
		}
	}
	es := h.Elem.Size()
	if rank == 0 {
		return []Run{{0, 0, es}}, nil
	}
	// Runs are contiguous along dimension 0; iterate the remaining dims.
	nruns := 1
	for k := 1; k < rank; k++ {
		nruns *= size[k]
	}
	runLen := size[0] * es
	runs := make([]Run, 0, nruns)
	// strides in elements of the source array
	strides := make([]int, rank)
	strides[0] = 1
	for k := 1; k < rank; k++ {
		strides[k] = strides[k-1] * h.Dims[k-1]
	}
	idx := make([]int, rank) // index within the subarray, dims 1..rank-1 used
	for r := 0; r < nruns; r++ {
		src := offset[0]
		for k := 1; k < rank; k++ {
			src += (offset[k] + idx[k]) * strides[k]
		}
		runs = append(runs, Run{SrcOff: src * es, DstOff: r * runLen, Len: runLen})
		for k := 1; k < rank; k++ {
			idx[k]++
			if idx[k] < size[k] {
				break
			}
			idx[k] = 0
		}
	}
	return runs, nil
}

// CollapseDims drops dimensions of size 1, mirroring the last parameter
// of the T-SQL Subarray function ("subarrays with length of one in any
// dimension are automatically converted to a lower dimensional array",
// §5.1). A fully-degenerate shape collapses to rank 1 with a single
// element rather than rank 0, matching the paper's example of extracting
// column vectors from a matrix.
func CollapseDims(size []int) []int {
	out := make([]int, 0, len(size))
	for _, d := range size {
		if d != 1 {
			out = append(out, d)
		}
	}
	if len(out) == 0 && len(size) > 0 {
		out = append(out, 1)
	}
	return out
}

// Subarray extracts the contiguous sub-block starting at offset with the
// given size. If collapse is true, result dimensions of size 1 are
// dropped. The result's storage class is short when it fits, max
// otherwise (so subsetting a max array can yield a page-friendly short
// array, one of the paper's stated goals).
func (a *Array) Subarray(offset, size []int, collapse bool) (*Array, error) {
	runs, err := SubarrayPlan(a.hdr, offset, size)
	if err != nil {
		return nil, err
	}
	dims := append([]int(nil), size...)
	if collapse {
		dims = CollapseDims(dims)
	}
	out, err := NewAuto(a.hdr.Elem, dims...)
	if err != nil {
		return nil, err
	}
	src, dst := a.Payload(), out.Payload()
	for _, r := range runs {
		copy(dst[r.DstOff:r.DstOff+r.Len], src[r.SrcOff:])
	}
	return out, nil
}

// SubarrayFrom extracts a subarray given index vectors (IntVector arrays)
// rather than Go slices — the exact T-SQL calling convention:
//
//	FloatArrayMax.Subarray(@a, IntArray.Vector_3(1,4,6), IntArray.Vector_3(5,5,5), 0)
func (a *Array) SubarrayFrom(offset, size *Array, collapse bool) (*Array, error) {
	if offset.Rank() != 1 || size.Rank() != 1 {
		return nil, fmt.Errorf("%w: offset and size must be vectors", ErrRank)
	}
	return a.Subarray(offset.Ints(), size.Ints(), collapse)
}
