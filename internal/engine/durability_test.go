package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// crashDisk is a database file behind a volatile cache: writes and
// allocations are visible to reads at once but survive Crash only once
// a Sync has made them durable — a power cut with the OS page cache
// unflushed.
type crashDisk struct {
	mu      sync.Mutex
	pages   [][]byte // what reads see
	durable [][]byte // what survives Crash
}

func newCrashDisk() *crashDisk {
	return &crashDisk{pages: [][]byte{make([]byte, pages.PageSize)}}
}

func clonePages(src [][]byte) [][]byte {
	out := make([][]byte, len(src))
	for i, p := range src {
		out[i] = append([]byte(nil), p...)
	}
	return out
}

func (d *crashDisk) ReadPage(id pages.PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("%w: read page %d of %d", pages.ErrOutOfBounds, id, len(d.pages))
	}
	copy(buf, d.pages[id])
	return nil
}

func (d *crashDisk) WritePage(id pages.PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("%w: write page %d of %d", pages.ErrOutOfBounds, id, len(d.pages))
	}
	copy(d.pages[id], buf)
	return nil
}

func (d *crashDisk) Allocate() (pages.PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, pages.PageSize))
	return pages.PageID(len(d.pages) - 1), nil
}

func (d *crashDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

func (d *crashDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.durable = clonePages(d.pages)
	return nil
}

func (d *crashDisk) Close() error { return nil }

// Crash drops every write and allocation since the last Sync.
func (d *crashDisk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.durable == nil {
		d.pages = [][]byte{make([]byte, pages.PageSize)}
		return
	}
	d.pages = clonePages(d.durable)
}

// checkRows asserts tbl holds exactly keys 0..n-1, each with x = key
// and a MAX array whose element 100 is key+100.
func checkRows(t *testing.T, db *DB, n int64) {
	t.Helper()
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rows(); got != n {
		t.Fatalf("recovered %d rows, want %d", got, n)
	}
	for i := int64(0); i < n; i++ {
		vals, err := tbl.Get(i)
		if err != nil {
			t.Fatalf("acknowledged row %d lost: %v", i, err)
		}
		if vals[1].F != float64(i) {
			t.Fatalf("row %d: x = %v, want %v", i, vals[1].F, float64(i))
		}
		if got, want := fetchArray(t, tbl, i, 2).FloatAt(100), float64(i)+100; got != want {
			t.Fatalf("row %d: elem 100 = %v, want %v", i, got, want)
		}
	}
	verifyInvariants(t, db, "t")
}

func insertRows(t *testing.T, tbl *Table, from, to int64) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := insertRow(t, tbl, i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

func insertRow(t *testing.T, tbl *Table, i int64) error {
	return tbl.Insert([]Value{IntValue(i), FloatValue(float64(i)), BinaryMaxValue(bigArray(t, 500, float64(i)).Bytes())})
}

// TestCheckpointedPagesSurviveCrash: a checkpoint logs that every page
// before it is on disk, and recovery then skips the log before it. So
// the checkpoint must fsync the database file, even behind a wrapping
// DiskManager; a crash that drops the unsynced page cache afterwards
// must not lose a row committed before the checkpoint.
func TestCheckpointedPagesSurviveCrash(t *testing.T) {
	disk := newCrashDisk()
	st := wal.NewMemStorage()
	db := openDB(t, pages.NewFaultDisk(disk), st)
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, tbl, 0, 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertRows(t, tbl, 20, 30)

	st.Crash()
	disk.Crash()
	checkRows(t, openDB(t, pages.NewFaultDisk(disk), st), 30)
}

// TestFailedCommitSyncIsFinal: when a commit's WAL fsync fails, the
// commit reports it and the log stays failed, so every later write
// statement and checkpoint errors instead of being acknowledged; the
// database stays readable. After a crash and reopen every acknowledged
// row is back, and the row whose fsync failed is not.
func TestFailedCommitSyncIsFinal(t *testing.T) {
	disk := newCrashDisk()
	st := &syncFailStorage{MemStorage: wal.NewMemStorage()}
	db := openDB(t, disk, st)
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, tbl, 0, 10)

	st.failNextSync()
	if err := insertRow(t, tbl, 10); !errors.Is(err, errSyncInjected) {
		t.Fatalf("commit over a failed fsync = %v, want the fsync error", err)
	}
	if err := insertRow(t, tbl, 11); !errors.Is(err, errSyncInjected) {
		t.Fatalf("statement after a failed fsync = %v, want the stored fsync error", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, errSyncInjected) {
		t.Fatalf("checkpoint after a failed fsync = %v, want the stored fsync error", err)
	}
	if _, err := tbl.Get(3); err != nil {
		t.Fatalf("read after a failed fsync: %v", err)
	}

	st.Crash()
	disk.Crash()
	checkRows(t, openDB(t, disk, st), 10)
}

var errSyncInjected = errors.New("injected WAL fsync failure")

// syncFailStorage is a MemStorage whose next segment fsync can be made
// to fail, leaving that segment's synced prefix where it was.
type syncFailStorage struct {
	*wal.MemStorage
	mu       sync.Mutex
	failNext bool
}

func (s *syncFailStorage) failNextSync() {
	s.mu.Lock()
	s.failNext = true
	s.mu.Unlock()
}

func (s *syncFailStorage) Open(seq uint32) (wal.Segment, error) {
	seg, err := s.MemStorage.Open(seq)
	return &syncFailSegment{Segment: seg, st: s}, err
}

func (s *syncFailStorage) Create(seq uint32) (wal.Segment, error) {
	seg, err := s.MemStorage.Create(seq)
	return &syncFailSegment{Segment: seg, st: s}, err
}

type syncFailSegment struct {
	wal.Segment
	st *syncFailStorage
}

func (s *syncFailSegment) Sync() error {
	s.st.mu.Lock()
	fail := s.st.failNext
	s.st.failNext = false
	s.st.mu.Unlock()
	if fail {
		return errSyncInjected
	}
	return s.Segment.Sync()
}
