// The race detector makes sync.Pool drop the blob store's pooled codec
// scratch at random, so a batch may allocate a fresh one: the guard
// holds without it only.

//go:build !race

package turbulence

import (
	"testing"

	"sqlarray/internal/interp"
)

// TestVelocityBatchAllocs bounds the allocations of a resident 64-point
// Lag8 PartialRead batch, BenchmarkVelocityBatch's op. A batch resolves
// each of the eight cubes once, so the count is a few per cube: 56 in
// all. A stencil read costs nothing, since the blob reader plans its
// pieces in the pooled codec scratch; a piece list allocated per read
// costs one more per point (128), and a cube resolved per point about
// seven more per point.
func TestVelocityBatchAllocs(t *testing.T) {
	f := genField(t, 32)
	s, err := CreateStore(memDB(t), "turb", f, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	pts := seededPoints(3, 64, 32)
	if _, err := s.VelocityBatch(0, pts, interp.Lag8, PartialRead); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.VelocityBatch(0, pts, interp.Lag8, PartialRead); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per batch", allocs)
	if allocs > 70 {
		t.Errorf("64-point batch allocates %.0f times, want <= 70", allocs)
	}
}
