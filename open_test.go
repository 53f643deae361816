package sqlarray

import (
	"errors"
	"testing"

	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

var errInjectedSync = errors.New("injected segment fsync failure")

// failNthSync wraps a wal.MemStorage so that the nth segment fsync
// (counting from 1) fails; n = 0 fails none. A failed fsync leaves the
// segment's synced prefix where it was, so Crash drops its bytes.
type failNthSync struct {
	*wal.MemStorage
	n, syncs int
}

func (f *failNthSync) Open(seq uint32) (wal.Segment, error) {
	s, err := f.MemStorage.Open(seq)
	if err != nil {
		return nil, err
	}
	return &failNthSyncSegment{Segment: s, st: f}, nil
}

func (f *failNthSync) Create(seq uint32) (wal.Segment, error) {
	s, err := f.MemStorage.Create(seq)
	if err != nil {
		return nil, err
	}
	return &failNthSyncSegment{Segment: s, st: f}, nil
}

type failNthSyncSegment struct {
	wal.Segment
	st *failNthSync
}

func (s *failNthSyncSegment) Sync() error {
	s.st.syncs++
	if s.st.syncs == s.st.n {
		return errInjectedSync
	}
	return s.Segment.Sync()
}

// TestOpenDatabaseReportsDualSeedFailure fails each of the first two
// WAL fsyncs of a fresh OpenDatabase — creating dual and seeding its
// row once took one commit each. A failed fsync must reach the caller,
// and after a crash and reopen dual must hold exactly one row: never
// an empty dual that the reopen then takes as already seeded.
func TestOpenDatabaseReportsDualSeedFailure(t *testing.T) {
	for n := 1; n <= 2; n++ {
		st := &failNthSync{MemStorage: wal.NewMemStorage(), n: n}
		l, err := wal.Open(st, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		disk := pages.NewMemDisk()
		_, err = OpenDatabase(Options{Disk: disk, WAL: l})
		if st.syncs >= n && !errors.Is(err, errInjectedSync) {
			t.Fatalf("fsync %d of %d failed; OpenDatabase returned %v", n, st.syncs, err)
		}
		if st.syncs < n && err != nil {
			t.Fatalf("no fsync failed; OpenDatabase returned %v", err)
		}

		st.Crash()
		st.n = 0
		l, err = wal.Open(st, wal.Options{})
		if err != nil {
			t.Fatalf("fsync %d failed: reopening the log: %v", n, err)
		}
		db, err := OpenDatabase(Options{Disk: disk, WAL: l})
		if err != nil {
			t.Fatalf("fsync %d failed: reopening the database: %v", n, err)
		}
		if got, err := db.QueryScalarFloat("SELECT COUNT(*) FROM dual"); err != nil || got != 1 {
			t.Fatalf("fsync %d failed: after crash and reopen dual has %v rows (%v), want 1", n, got, err)
		}
	}
}
