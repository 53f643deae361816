package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncode3DKnown(t *testing.T) {
	// Interleave pattern: x -> bit 0, y -> bit 1, z -> bit 2.
	cases := []struct {
		x, y, z uint32
		want    uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
		{3, 3, 3, 63},
	}
	for _, c := range cases {
		got, err := Encode3D(c.x, c.y, c.z)
		if err != nil || got != c.want {
			t.Errorf("Encode3D(%d,%d,%d) = %d, %v; want %d", c.x, c.y, c.z, got, err, c.want)
		}
	}
}

func TestRoundtrip3DProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		x := uint32(rng.Intn(Max3DCoord + 1))
		y := uint32(rng.Intn(Max3DCoord + 1))
		z := uint32(rng.Intn(Max3DCoord + 1))
		code, err := Encode3D(x, y, z)
		if err != nil {
			return false
		}
		bx, by, bz := Decode3D(code)
		return bx == x && by == y && bz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeBounds(t *testing.T) {
	if _, err := Encode3D(Max3DCoord+1, 0, 0); err == nil {
		t.Error("over-range 3D must fail")
	}
	if c, err := Encode3D(Max3DCoord, Max3DCoord, Max3DCoord); err != nil || c != 1<<63-1 {
		t.Errorf("max encode = %d, %v", c, err)
	}
}

func TestLocalityNeighborCodes(t *testing.T) {
	// Adjacent cells within an octant share long prefixes: the code of
	// (x,y,z) and (x+1,y,z) with even x differ only in the low bits.
	c0, _ := Encode3D(4, 2, 6)
	c1, _ := Encode3D(5, 2, 6)
	if c1 != c0+1 {
		t.Errorf("x-neighbor codes %d, %d; want consecutive", c0, c1)
	}
}

func TestBoxRangesCoverExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		var lo, hi [3]uint32
		for d := 0; d < 3; d++ {
			a := uint32(rng.Intn(16))
			b := uint32(rng.Intn(16))
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		ranges, err := BoxRanges3D(lo, hi, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Collect codes from ranges.
		got := map[uint64]bool{}
		for _, r := range ranges {
			if r.Hi <= r.Lo {
				t.Fatalf("empty range %+v", r)
			}
			for c := r.Lo; c < r.Hi; c++ {
				if got[c] {
					t.Fatalf("code %d covered twice", c)
				}
				got[c] = true
			}
		}
		// Expected codes from brute force.
		want := map[uint64]bool{}
		for x := lo[0]; x <= hi[0]; x++ {
			for y := lo[1]; y <= hi[1]; y++ {
				for z := lo[2]; z <= hi[2]; z++ {
					c, _ := Encode3D(x, y, z)
					want[c] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: covered %d codes, want %d", trial, len(got), len(want))
		}
		for c := range want {
			if !got[c] {
				t.Fatalf("trial %d: code %d missing", trial, c)
			}
		}
	}
}

func TestBoxRangesMerged(t *testing.T) {
	// A full octant-aligned cube must be a single range.
	ranges, err := BoxRanges3D([3]uint32{0, 0, 0}, [3]uint32{7, 7, 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 1 || ranges[0].Lo != 0 || ranges[0].Hi != 512 {
		t.Errorf("full cube ranges = %+v", ranges)
	}
}

func TestBoxRangesCapCoarsens(t *testing.T) {
	// A thin slab produces many exact ranges; with a cap the result is
	// shorter but must still cover all wanted codes (superset allowed).
	lo, hi := [3]uint32{3, 0, 0}, [3]uint32{3, 15, 15}
	exact, err := BoxRanges3D(lo, hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := BoxRanges3D(lo, hi, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) >= len(exact) {
		t.Errorf("cap did not shrink: %d vs %d", len(capped), len(exact))
	}
	inCapped := func(c uint64) bool {
		for _, r := range capped {
			if c >= r.Lo && c < r.Hi {
				return true
			}
		}
		return false
	}
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for z := lo[2]; z <= hi[2]; z++ {
				c, _ := Encode3D(x, y, z)
				if !inCapped(c) {
					t.Fatalf("capped ranges miss code %d", c)
				}
			}
		}
	}
}

func TestBoxRangesErrors(t *testing.T) {
	if _, err := BoxRanges3D([3]uint32{2, 0, 0}, [3]uint32{1, 5, 5}, 0); err == nil {
		t.Error("inverted box must fail")
	}
	if _, err := BoxRanges3D([3]uint32{0, 0, 0}, [3]uint32{Max3DCoord + 1, 0, 0}, 0); err == nil {
		t.Error("out-of-range box must fail")
	}
}

func TestMortonOrderIsSorted(t *testing.T) {
	// Scanning a small cube in Morton order visits strictly increasing
	// codes — the property that makes z-indexed clustered keys scan
	// sequentially.
	prev := uint64(0)
	first := true
	for c := uint64(0); c < 512; c++ {
		x, y, z := Decode3D(c)
		back, _ := Encode3D(x, y, z)
		if back != c {
			t.Fatalf("decode/encode mismatch at %d", c)
		}
		if !first && back <= prev {
			t.Fatalf("order violated at %d", c)
		}
		prev, first = back, false
	}
}
