//go:build !race

package spectra

import (
	"math/rand"
	"runtime"
	"testing"
)

// The race detector allocates on its own; the bounds hold without it.

// TestGetAllocations bounds what a Get of a resident 2000-bin spectrum
// allocates: 25 objects today (the row image and its decoded values,
// the snapshot, the four readers and their chunk lists and header
// dimensions, the two scratch arrays the columns are read into and the
// result), and about 87 kB, of which the result's four vectors are
// 64 kB. A whole-blob copy of each column beside the scratch would add
// 52 kB.
func TestGetAllocations(t *testing.T) {
	st, err := CreateStore(memDB(t), "spectra")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Synthesize(rand.New(rand.NewSource(46)), SynthesisParams{
		Bins: 2000, LoWave: 3800, HiWave: 9200, Z: 0.1, SNR: 25, BadFrac: 0.02, LineSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ID = 1
	if err := st.Insert(s); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if _, err := st.Get(1); err != nil {
			t.Fatal(err)
		}
	}
	get()
	allocs := testing.AllocsPerRun(50, get)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / 50
	t.Logf("%.0f allocations, %d bytes per Get", allocs, bytes)
	if allocs > 25 {
		t.Errorf("a resident Get allocates %.0f times, want <= 25", allocs)
	}
	if bytes > 96<<10 {
		t.Errorf("a resident Get allocates %d bytes, want <= %d", bytes, 96<<10)
	}
}
