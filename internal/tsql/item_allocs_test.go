// The race detector makes sync.Pool drop pooled boundaries at random, so
// a crossing may allocate a fresh one: the bound holds without it only.

//go:build !race

package tsql

import (
	"testing"

	"sqlarray/internal/engine"
)

// TestMaxItemAllocations pins what one FloatArrayMax.Item_1 call on a
// resident row allocates, crossing included: spectra_hot's SQL point
// query makes exactly this call.
func TestMaxItemAllocations(t *testing.T) {
	db, def, args, snap := maxItemRow(t, 1500)
	var out engine.Vector
	call := func() {
		if err := db.Funcs().CallBatch(snap, def, args, 1, &out); err != nil {
			t.Fatal(err)
		}
	}
	call()
	allocs := testing.AllocsPerRun(100, call)
	t.Logf("%.0f allocations per call", allocs)
	if out.F[0] != 375 {
		t.Errorf("Item_1 = %v, want 375", out.F[0])
	}
	if allocs > 0 {
		t.Errorf("a resident FloatArrayMax.Item_1 call allocates %.0f times, want 0", allocs)
	}
}
