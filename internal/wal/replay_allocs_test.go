// The race detector instruments allocations of its own, so the counts
// below hold without it only.

//go:build !race

package wal

import "testing"

// TestReplayAllocationsDoNotGrowWithRecords: Open's scan and Recover
// each read every frame into one buffer they reuse, so replaying a log
// of N page records allocates the same whatever N is.
func TestReplayAllocationsDoNotGrowWithRecords(t *testing.T) {
	replayAllocs := func(n int) float64 {
		st := NewMemStorage()
		o := Options{SegmentSize: 64 << 20} // one segment at every n
		l, err := Open(st, o)
		if err != nil {
			t.Fatal(err)
		}
		page := pattern(8196, 3)
		for i := 0; i < n; i++ {
			if _, err := l.Append(RecPageImage, page[:4], page[4:]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Append(RecCommit, []byte(`{"tables":[]}`)); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		records := 0
		return testing.AllocsPerRun(5, func() {
			l, err := Open(st, o)
			if err != nil {
				t.Fatal(err)
			}
			records = 0
			err = l.Recover(func(lsn LSN, typ RecordType, payload []byte) error {
				records++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if records != n+1 {
				t.Fatalf("replayed %d records, want %d", records, n+1)
			}
		})
	}
	small, large := replayAllocs(8), replayAllocs(256)
	t.Logf("Open + Recover: %.0f allocations over 8 page records, %.0f over 256", small, large)
	if large > small {
		t.Errorf("replaying 256 page records allocates %.0f times, 8 records %.0f: replay allocates per record", large, small)
	}
}
