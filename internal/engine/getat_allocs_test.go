// The race detector instruments allocations of its own, so the count
// below holds without it only.

//go:build !race

package engine

import "testing"

// TestGetAtAllocations: a point read of a resident row makes two
// allocations — the row image tree.Get copies off the leaf, and the
// decoded values, which alias that copy. A per-row decoder state or a
// second copy of the image shows up here.
func TestGetAtAllocations(t *testing.T) {
	tbl := oneRowTable(t)
	s := tbl.db.Snapshot()
	defer s.Release()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tbl.GetAt(s, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one-row GetAt: %.1f allocations", allocs)
	if allocs > 2 {
		t.Errorf("one-row GetAt makes %.1f allocations, want <= 2", allocs)
	}
}
