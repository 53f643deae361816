// Package sfc implements space-filling curves — the Morton (z-order)
// indexes both large use cases of the paper partition their data along:
// the turbulence database stores (64+8)³ cubes "partitioned along a space
// filling curve (z-index)" (§2.1) and the N-body octree "would be
// computed from a space filling curve index" (§2.3).
package sfc

import "fmt"

// 21-bit coordinates pack into 63 bits via the standard parallel-prefix
// bit spreading.

// Max3DCoord is the largest coordinate Encode3D accepts (21 bits).
const Max3DCoord = 1<<21 - 1

// spread3 inserts two zero bits between each of the low 21 bits of x.
func spread3(x uint64) uint64 {
	x &= 0x1FFFFF
	x = (x | x<<32) & 0x1F00000000FFFF
	x = (x | x<<16) & 0x1F0000FF0000FF
	x = (x | x<<8) & 0x100F00F00F00F00F
	x = (x | x<<4) & 0x10C30C30C30C30C3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact3 is the inverse of spread3.
func compact3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x ^ x>>2) & 0x10C30C30C30C30C3
	x = (x ^ x>>4) & 0x100F00F00F00F00F
	x = (x ^ x>>8) & 0x1F0000FF0000FF
	x = (x ^ x>>16) & 0x1F00000000FFFF
	x = (x ^ x>>32) & 0x1FFFFF
	return x
}

// Encode3D packs (x, y, z) into their Morton code (x contributes the
// lowest bit of each triple).
func Encode3D(x, y, z uint32) (uint64, error) {
	if x > Max3DCoord || y > Max3DCoord || z > Max3DCoord {
		return 0, fmt.Errorf("sfc: coordinate out of 21-bit range: (%d,%d,%d)", x, y, z)
	}
	return spread3(uint64(x)) | spread3(uint64(y))<<1 | spread3(uint64(z))<<2, nil
}

// Decode3D is the inverse of Encode3D.
func Decode3D(code uint64) (x, y, z uint32) {
	return uint32(compact3(code)), uint32(compact3(code >> 1)), uint32(compact3(code >> 2))
}

// Range is a half-open interval [Lo, Hi) of Morton codes.
type Range struct {
	Lo, Hi uint64
}

// BoxRanges3D decomposes the axis-aligned box [lo, hi] (inclusive cell
// coordinates) into maximal runs of consecutive 3-D Morton codes. The
// decomposition recursively splits the box against octant boundaries:
// a sub-box that exactly fills its octant contributes one range. The
// turbulence service uses this to turn a spatial request into a small
// set of clustered-key range scans.
//
// maxRanges caps the output (<=0 means unlimited); when the cap is hit,
// remaining sub-boxes are emitted as coarse covering ranges that may
// include extra codes, so callers must post-filter.
func BoxRanges3D(lo, hi [3]uint32, maxRanges int) ([]Range, error) {
	for d := 0; d < 3; d++ {
		if lo[d] > hi[d] {
			return nil, fmt.Errorf("sfc: empty box on axis %d: [%d,%d]", d, lo[d], hi[d])
		}
		if hi[d] > Max3DCoord {
			return nil, fmt.Errorf("sfc: box exceeds 21-bit range on axis %d", d)
		}
	}
	var out []Range
	var walk func(cellLo [3]uint32, size uint32) bool
	walk = func(cellLo [3]uint32, size uint32) bool {
		// Intersect this cube with the query box.
		var iLo, iHi [3]uint32
		for d := 0; d < 3; d++ {
			cLo, cHi := cellLo[d], cellLo[d]+size-1
			if cHi < lo[d] || cLo > hi[d] {
				return true // disjoint
			}
			iLo[d] = maxU32(cLo, lo[d])
			iHi[d] = minU32(cHi, hi[d])
		}
		full := true
		for d := 0; d < 3; d++ {
			if iLo[d] != cellLo[d] || iHi[d] != cellLo[d]+size-1 {
				full = false
				break
			}
		}
		start, _ := Encode3D(cellLo[0], cellLo[1], cellLo[2])
		if full || size == 1 {
			appendRange(&out, Range{start, start + uint64(size)*uint64(size)*uint64(size)})
			return true
		}
		if maxRanges > 0 && len(out) >= maxRanges {
			// Cap hit: cover the whole cube coarsely.
			appendRange(&out, Range{start, start + uint64(size)*uint64(size)*uint64(size)})
			return true
		}
		half := size / 2
		// Children in Morton order: z-major bit order is (z,y,x) from
		// bit 2 down, matching Encode3D's packing.
		for oct := uint32(0); oct < 8; oct++ {
			child := [3]uint32{
				cellLo[0] + (oct&1)*half,
				cellLo[1] + ((oct>>1)&1)*half,
				cellLo[2] + ((oct>>2)&1)*half,
			}
			if !walk(child, half) {
				return false
			}
		}
		return true
	}
	// Root cube: the smallest power-of-two cube containing the box.
	size := uint32(1)
	for size <= hi[0] || size <= hi[1] || size <= hi[2] {
		size <<= 1
	}
	walk([3]uint32{0, 0, 0}, size)
	return out, nil
}

// appendRange merges adjacent ranges as they are produced (children are
// visited in Morton order, so adjacency in the output is common).
func appendRange(out *[]Range, r Range) {
	if n := len(*out); n > 0 && (*out)[n-1].Hi == r.Lo {
		(*out)[n-1].Hi = r.Hi
		return
	}
	*out = append(*out, r)
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}
