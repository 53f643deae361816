package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sqlarray/internal/pages"
)

func newTestTree(t *testing.T, poolPages int) *Tree {
	t.Helper()
	bp := pages.NewBufferPool(pages.NewMemDisk(), poolPages)
	tr, err := New(bp)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func val(i int64) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	binary.LittleEndian.PutUint64(b[8:], uint64(i*7))
	return b[:]
}

func TestInsertGetSingleLeaf(t *testing.T) {
	tr := newTestTree(t, 16)
	for i := int64(0); i < 50; i++ {
		if err := tr.Insert(i, val(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tr.Len() != 50 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Height() != 1 {
		t.Errorf("50 small records should fit one leaf; height = %d", tr.Height())
	}
	for i := int64(0); i < 50; i++ {
		got, err := tr.Get(i)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if binary.LittleEndian.Uint64(got[8:]) != uint64(i*7) {
			t.Errorf("Get %d payload mismatch", i)
		}
	}
	if _, err := tr.Get(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: %v", err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := newTestTree(t, 16)
	if err := tr.Insert(1, val(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, val(2)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate insert: %v", err)
	}
	// Put overwrites.
	if err := tr.Put(1, []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(1)
	if err != nil || string(got) != "replaced" {
		t.Errorf("after Put: %q, %v", got, err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d after overwrite", tr.Len())
	}
}

func TestSplitsSequentialInsert(t *testing.T) {
	tr := newTestTree(t, 256)
	const n = 20000
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(i, val(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tr.Height() < 2 {
		t.Errorf("20k records should split; height = %d", tr.Height())
	}
	for _, k := range []int64{0, 1, n / 2, n - 2, n - 1} {
		got, err := tr.Get(k)
		if err != nil {
			t.Fatalf("Get %d: %v", k, err)
		}
		if binary.LittleEndian.Uint64(got) != uint64(k) {
			t.Errorf("Get %d wrong payload", k)
		}
	}
}

func TestRandomInsertMatchesMapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	tr := newTestTree(t, 512)
	ref := make(map[int64][]byte)
	for i := 0; i < 30000; i++ {
		k := int64(rng.Intn(10000))
		v := val(int64(rng.Intn(1 << 30)))
		if _, ok := ref[k]; ok {
			if err := tr.Put(k, v); err != nil {
				t.Fatalf("Put %d: %v", k, err)
			}
		} else {
			if err := tr.Insert(k, v); err != nil {
				t.Fatalf("Insert %d: %v", k, err)
			}
		}
		ref[k] = v
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	for k, v := range ref {
		got, err := tr.Get(k)
		if err != nil {
			t.Fatalf("Get %d: %v", k, err)
		}
		if string(got) != string(v) {
			t.Fatalf("Get %d mismatch", k)
		}
	}
}

func TestScanOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := newTestTree(t, 512)
	keys := rng.Perm(5000)
	for _, k := range keys {
		if err := tr.Insert(int64(k), val(int64(k))); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
	}
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []int64
	for it.Next() {
		got = append(got, it.Key())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(got) != 5000 {
		t.Fatalf("scanned %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("scan not in key order")
	}
	for i, k := range got {
		if k != int64(i) {
			t.Fatalf("position %d = %d", i, k)
		}
	}
}

func TestScanFrom(t *testing.T) {
	tr := newTestTree(t, 256)
	for i := int64(0); i < 1000; i += 2 { // even keys only
		if err := tr.Insert(i, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Start at an absent odd key: first result is the next even key.
	it, err := tr.ScanFrom(501)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Next() {
		t.Fatal("no records from 501")
	}
	if it.Key() != 502 {
		t.Errorf("first key = %d, want 502", it.Key())
	}
	n := 1
	for it.Next() {
		n++
	}
	if n != 249 { // 502..998 step 2
		t.Errorf("scanned %d records, want 249", n)
	}
}

func TestDelete(t *testing.T) {
	tr := newTestTree(t, 256)
	for i := int64(0); i < 500; i++ {
		if err := tr.Insert(i, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 500; i += 3 {
		if err := tr.Delete(i); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	if err := tr.Delete(0); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	for i := int64(0); i < 500; i++ {
		_, err := tr.Get(i)
		if i%3 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("deleted %d still present: %v", i, err)
			}
		} else if err != nil {
			t.Errorf("surviving %d: %v", i, err)
		}
	}
	want := 500 - (500+2)/3
	if tr.Len() != want {
		t.Errorf("Len = %d, want %d", tr.Len(), want)
	}
}

func TestLargeValuesForceEarlySplits(t *testing.T) {
	tr := newTestTree(t, 512)
	big := make([]byte, 3000)
	for i := int64(0); i < 100; i++ {
		copy(big, fmt.Sprintf("row-%03d", i))
		if err := tr.Insert(i, big); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	// Only 2 records/page -> deep-ish tree, all retrievable.
	for i := int64(0); i < 100; i++ {
		got, err := tr.Get(i)
		if err != nil || len(got) != 3000 {
			t.Fatalf("Get %d: %d bytes, %v", i, len(got), err)
		}
		if string(got[:7]) != fmt.Sprintf("row-%03d", i) {
			t.Errorf("Get %d payload mismatch: %q", i, got[:7])
		}
	}
	if err := tr.Insert(200, make([]byte, MaxValueSize+1)); !errors.Is(err, errTooBig) {
		t.Errorf("oversized value: %v", err)
	}
}

func TestPutGrowingValueAcrossSplitBoundary(t *testing.T) {
	tr := newTestTree(t, 256)
	// Fill a leaf almost exactly, then grow one value so the in-place
	// update fails and the remove+reinsert path (with split) runs.
	v := make([]byte, 1500)
	for i := int64(0); i < 5; i++ {
		if err := tr.Insert(i, v); err != nil {
			t.Fatal(err)
		}
	}
	grown := make([]byte, 2500)
	copy(grown, "grown-value")
	if err := tr.Put(2, grown); err != nil {
		t.Fatalf("growing Put: %v", err)
	}
	got, err := tr.Get(2)
	if err != nil || len(got) != 2500 || string(got[:11]) != "grown-value" {
		t.Fatalf("after grow: %d bytes, %v", len(got), err)
	}
	if tr.Len() != 5 {
		t.Errorf("Len = %d, want 5", tr.Len())
	}
}

func TestNegativeKeys(t *testing.T) {
	tr := newTestTree(t, 64)
	keys := []int64{-100, -1, 0, 1, 100, -50, 50}
	for _, k := range keys {
		if err := tr.Insert(k, val(k)); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
	}
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []int64
	for it.Next() {
		got = append(got, it.Key())
	}
	want := []int64{-100, -50, -1, 0, 1, 50, 100}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScanSurvivesSmallBufferPool(t *testing.T) {
	// Pool far smaller than the tree: the scan must not exhaust frames.
	bp := pages.NewBufferPool(pages.NewMemDisk(), 8)
	tr, err := New(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5000; i++ {
		if err := tr.Insert(i, val(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.Next() {
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != 5000 {
		t.Errorf("scanned %d", n)
	}
	if bp.Stats().Evictions == 0 {
		t.Error("expected evictions with an 8-frame pool")
	}
}

func TestScanRange(t *testing.T) {
	tr := newTestTree(t, 64)
	for i := int64(0); i < 500; i++ {
		if err := tr.Insert(i*2, val(i)); err != nil { // even keys 0..998
			t.Fatal(err)
		}
	}
	cases := []struct {
		lo, hi int64
		first  int64
		count  int
	}{
		{0, 998, 0, 500},
		{100, 200, 100, 51},
		{101, 199, 102, 49}, // bounds between keys
		{997, 2000, 998, 1},
		{999, 2000, 0, 0}, // past the end
		{-50, -1, 0, 0},   // before the start
		{10, 5, 0, 0},     // inverted
		{42, 42, 42, 1},   // point
		{43, 43, 0, 0},    // point miss
	}
	for _, c := range cases {
		it, err := tr.ScanRange(c.lo, c.hi)
		if err != nil {
			t.Fatalf("ScanRange(%d,%d): %v", c.lo, c.hi, err)
		}
		n := 0
		var first int64
		for it.Next() {
			if n == 0 {
				first = it.Key()
			}
			if it.Key() < c.lo || it.Key() > c.hi {
				t.Errorf("ScanRange(%d,%d) yielded out-of-range key %d", c.lo, c.hi, it.Key())
			}
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatalf("ScanRange(%d,%d): %v", c.lo, c.hi, err)
		}
		it.Close()
		if n != c.count {
			t.Errorf("ScanRange(%d,%d) = %d keys, want %d", c.lo, c.hi, n, c.count)
		}
		if n > 0 && first != c.first {
			t.Errorf("ScanRange(%d,%d) first = %d, want %d", c.lo, c.hi, first, c.first)
		}
	}
	if got := tr.bp.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after range scans = %d", got)
	}
}

func TestScanRangeUnpinsOnBoundStop(t *testing.T) {
	tr := newTestTree(t, 64)
	for i := int64(0); i < 2000; i++ {
		if err := tr.Insert(i, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Exhaust a bounded iterator WITHOUT calling Close: hitting the upper
	// bound must release the pinned leaf on its own.
	it, err := tr.ScanRange(100, 110)
	if err != nil {
		t.Fatal(err)
	}
	for it.Next() {
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if got := tr.bp.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after bound-terminated scan (no Close) = %d, want 0", got)
	}
	it.Close() // still safe

	// Early Close mid-range must unpin too (the TOP-n path).
	it, err = tr.ScanRange(0, 1999)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !it.Next() {
			t.Fatal("short scan")
		}
	}
	if got := tr.bp.PinnedFrames(); got != 1 {
		t.Errorf("PinnedFrames mid-scan = %d, want 1", got)
	}
	it.Close()
	if got := tr.bp.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after early Close = %d, want 0", got)
	}
	if err := tr.bp.DropCleanBuffers(); err != nil {
		t.Errorf("DropCleanBuffers after early Close: %v", err)
	}
}

func TestBounds(t *testing.T) {
	tr := newTestTree(t, 64)
	if _, _, ok, err := tr.Bounds(); err != nil || ok {
		t.Fatalf("empty tree Bounds: ok=%v err=%v", ok, err)
	}
	keys := []int64{42, -17, 9000, 3, 512}
	for _, k := range keys {
		if err := tr.Insert(k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	min, max, ok, err := tr.Bounds()
	if err != nil || !ok {
		t.Fatalf("Bounds: ok=%v err=%v", ok, err)
	}
	if min != -17 || max != 9000 {
		t.Errorf("Bounds = [%d, %d], want [-17, 9000]", min, max)
	}
	// Grow across splits and re-check.
	for i := int64(0); i < 3000; i++ {
		if err := tr.Put(i*3, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	min, max, ok, err = tr.Bounds()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if min != -17 || max != 9000 {
		t.Errorf("Bounds after growth = [%d, %d], want [-17, 9000]", min, max)
	}
	if got := tr.bp.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after Bounds = %d", got)
	}
}

func TestBoundsAfterDeletingMax(t *testing.T) {
	tr := newTestTree(t, 64)
	for i := int64(0); i < 1000; i++ {
		if err := tr.Insert(i, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Lazy deletion can leave the rightmost leaf empty; maxKey must walk
	// the prev chain past it.
	for i := int64(400); i < 1000; i++ {
		if err := tr.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	_, max, ok, err := tr.Bounds()
	if err != nil || !ok {
		t.Fatalf("Bounds after deletes: ok=%v err=%v", ok, err)
	}
	if max != 399 {
		t.Errorf("max after deletes = %d, want 399", max)
	}
}
