// The race detector instruments allocations of its own, so the count
// below holds without it only.

//go:build !race

package engine

import (
	"errors"
	"testing"

	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// discardStorage is a log device that keeps only its segment's length,
// so a test counts the engine's and the log's allocations, not the
// device's.
type discardStorage struct{ seg discardSegment }

func (d *discardStorage) List() ([]uint32, error)            { return nil, nil }
func (d *discardStorage) Open(uint32) (wal.Segment, error)   { return &d.seg, nil }
func (d *discardStorage) Create(uint32) (wal.Segment, error) { return &d.seg, nil }
func (d *discardStorage) Remove(uint32) error                { return nil }

type discardSegment struct{ size int64 }

func (s *discardSegment) ReadAt([]byte, int64) (int, error) {
	return 0, errors.New("discardSegment: no bytes kept")
}
func (s *discardSegment) Append(p []byte) error     { s.size += int64(len(p)); return nil }
func (s *discardSegment) Sync() error               { return nil }
func (s *discardSegment) Truncate(size int64) error { s.size = min(s.size, size); return nil }
func (s *discardSegment) Size() (int64, error)      { return s.size, nil }
func (s *discardSegment) Close() error              { return nil }

// TestLogFrameAllocatesNothing: logging a resident page frames the WAL
// record straight from the page — its id and its bytes as the record's
// parts — so a page image (a B-tree leaf) and a page prefix (blob
// chunks) cost no allocation per record, the append buffer's write-outs
// to the segment included.
func TestLogFrameAllocatesNothing(t *testing.T) {
	l, err := wal.Open(&discardStorage{}, wal.Options{SegmentSize: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{PoolPages: 256, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	arr := make([]byte, 3*pages.PageSize) // a blob of several chunks
	if err := tbl.InsertTx(tx, []Value{IntValue(1), FloatValue(2), BinaryMaxValue(arr)}); err != nil {
		t.Fatal(err)
	}
	frames := db.bp.EndCapture(tx.cap)
	kinds := map[pages.PageType]int{}
	for _, f := range frames {
		kinds[f.Page.Type()]++
	}
	if kinds[pages.TypeData] == 0 || kinds[pages.TypeBlobData] == 0 {
		t.Fatalf("session dirtied page types %v, want a leaf and blob chunks", kinds)
	}
	before := l.Stats().Records
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		for _, f := range frames {
			if err := db.logFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := l.Stats().Records - before; got != uint64((runs+1)*len(frames)) {
		t.Fatalf("%d records logged, want %d", got, (runs+1)*len(frames))
	}
	if allocs != 0 {
		t.Errorf("logging %d resident frames makes %.1f allocations, want 0", len(frames), allocs)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
