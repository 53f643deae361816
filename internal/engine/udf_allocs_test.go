// The race detector makes sync.Pool drop pooled boundaries at random, so
// a crossing may allocate a fresh one: the guard holds without it only.

//go:build !race

package engine

import "testing"

// TestCallBatchQ4ShapeAllocatesNothing: once its pooled boundary and the
// out vector are sized, a 1024-row crossing of query 4's shape — a
// 64-byte short array and a constant BIGINT in, a FLOAT out — allocates
// nothing.
func TestCallBatchQ4ShapeAllocatesNothing(t *testing.T) {
	const n = 1024
	r := q4Registry()
	def, _ := r.Lookup("t.item_1")
	args := q4Shape(t, n)
	var out Vector
	allocs := testing.AllocsPerRun(50, func() {
		if err := r.CallBatch(nil, def, args, n, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CallBatch allocates %.1f times per 1024-row batch, want 0", allocs)
	}
	if out.Kind != ColFloat64 || !out.Uniform() || out.F[n-1] != 1 {
		t.Errorf("out = kind %v uniform %v last %v", out.Kind, out.Uniform(), out.F[n-1])
	}
	before := crossings(r)
	if err := r.CallBatch(nil, def, args, n, &out); err != nil {
		t.Fatal(err)
	}
	// 69 for the array (kind, length, 64 bytes), 9 for the index, 9 for
	// the result: query 4's 87 bytes per row.
	if got := crossings(r); got.calls-before.calls != n || got.bytes-before.bytes != n*87 {
		t.Errorf("one batch: %d calls, %d bytes marshaled; want %d, %d",
			got.calls-before.calls, got.bytes-before.bytes, n, n*87)
	}
}
