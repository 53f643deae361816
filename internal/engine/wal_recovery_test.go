package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"sqlarray/internal/blob"
	"sqlarray/internal/btree"
	"sqlarray/internal/core"
	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// ---- harness ------------------------------------------------------------

func openWAL(t *testing.T, st wal.Storage) *wal.Log {
	t.Helper()
	l, err := wal.Open(st, wal.Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l
}

func openDB(t *testing.T, disk pages.DiskManager, st wal.Storage) *DB {
	t.Helper()
	db, err := Open(Options{Disk: disk, PoolPages: 512, WAL: openWAL(t, st)})
	if err != nil {
		t.Fatalf("engine.Open: %v", err)
	}
	return db
}

func walTestSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "x", Type: ColFloat64},
		Column{Name: "m", Type: ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bigArray builds a 1-D Max float64 array spanning several blob chunks,
// with element i = seed + i.
func bigArray(t *testing.T, n int, seed float64) *core.Array {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = seed + float64(i)
	}
	a, err := core.FromFloat64s(core.Max, core.Float64, vals, n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// fetchArray reads a row's MAX column back as a core array.
func fetchArray(t *testing.T, tbl *Table, key int64, col int) *core.Array {
	t.Helper()
	vals, err := tbl.Get(key)
	if err != nil {
		t.Fatalf("Get(%d): %v", key, err)
	}
	payload, err := resolveMax(tbl, vals[col].B)
	if err != nil {
		t.Fatalf("ResolveMax(%d): %v", key, err)
	}
	a, err := core.Wrap(payload)
	if err != nil {
		t.Fatalf("Wrap(%d): %v", key, err)
	}
	return a
}

// verifyInvariants scans every table end to end, reads every MAX blob,
// and checks the structural invariants the acceptance criteria name:
// row counts match the catalog, blob directories resolve, zero pins.
func verifyInvariants(t *testing.T, db *DB, tables ...string) {
	t.Helper()
	for _, name := range tables {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatalf("table %q: %v", name, err)
		}
		n := int64(0)
		err = tbl.Scan(func(key int64, row *RowView) (bool, error) {
			for i, c := range tbl.Schema().Columns {
				v, err := row.Col(i)
				if err != nil {
					return false, err
				}
				if c.Type == ColVarBinaryMax && !v.IsNull() {
					payload, err := resolveMax(tbl, v.B)
					if err != nil {
						return false, err
					}
					if _, err := core.Wrap(payload); err != nil {
						return false, err
					}
				}
			}
			n++
			return true, nil
		})
		if err != nil {
			t.Fatalf("scan %q: %v", name, err)
		}
		if n != tbl.Rows() {
			t.Fatalf("table %q: scanned %d rows, catalog says %d", name, n, tbl.Rows())
		}
	}
	if pins := db.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames left pinned", pins)
	}
}

// ---- kill-and-recover ---------------------------------------------------

const arrElems = 5000 // ~40 kB payload: 5 blob chunks

func TestRecoverCommittedDML(t *testing.T) {
	disk := pages.NewMemDisk()
	st := wal.NewMemStorage()
	db := openDB(t, disk, st)
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	mCol := 2
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert([]Value{
			IntValue(i), FloatValue(float64(i)), BinaryMaxValue(bigArray(t, arrElems, float64(i)*10000).Bytes()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint mid-workload: everything so far moves to the database
	// file and the log is pruned; recovery must compose checkpoint state
	// with the post-checkpoint tail.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint DML, all committed (synced) before the crash.
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.UpdateTx(tx, 4, []int{1}, []Value{FloatValue(44.5)})
	}); err != nil {
		t.Fatal(err)
	}
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.UpdateTx(tx, 3, []int{mCol}, []Value{BinaryMaxValue(bigArray(t, arrElems, 777).Bytes())})
	}); err != nil {
		t.Fatal(err)
	}
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.DeleteTx(tx, 7)
	}); err != nil {
		t.Fatal(err)
	}
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.DeleteTx(tx, 8)
	}); err != nil {
		t.Fatal(err)
	}
	patch, err := core.FromFloat64s(core.Short, core.Float64, []float64{-1, -2, -3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.UpdateBlobSubarrayTx(tx, 0, mCol, []int{2500}, []int{3}, patch)
	}); err != nil {
		t.Fatal(err)
	}

	// Crash: the process dies, the OS cache (unsynced WAL bytes, which
	// there are none of — every statement synced) is lost, and all dirty
	// buffer-pool pages vanish with the process.
	st.Crash()
	db2 := openDB(t, disk, st)
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatalf("recovered catalog: %v", err)
	}
	if got := tbl2.Rows(); got != 8 {
		t.Fatalf("recovered row count %d, want 8", got)
	}
	// Deleted rows are gone.
	for _, k := range []int64{7, 8} {
		if _, err := tbl2.Get(k); !errors.Is(err, btree.ErrNotFound) {
			t.Fatalf("deleted key %d: err = %v", k, err)
		}
	}
	// Scalar update survived.
	vals, err := tbl2.Get(4)
	if err != nil {
		t.Fatal(err)
	}
	if vals[1].F != 44.5 {
		t.Fatalf("updated x = %v, want 44.5", vals[1].F)
	}
	// Blob overwrite survived (and reads as the new content).
	a3 := fetchArray(t, tbl2, 3, mCol)
	if got := a3.FloatAt(0); got != 777 {
		t.Fatalf("rewritten blob elem 0 = %v, want 777", got)
	}
	// In-place subarray update survived.
	a0 := fetchArray(t, tbl2, 0, mCol)
	for i, want := range []float64{-1, -2, -3} {
		if got := a0.FloatAt(2500 + i); got != want {
			t.Fatalf("patched elem %d = %v, want %v", 2500+i, got, want)
		}
	}
	if got, want := a0.FloatAt(2499), float64(2499); got != want {
		t.Fatalf("neighbour elem = %v, want %v", got, want)
	}
	// Untouched row intact.
	a9 := fetchArray(t, tbl2, 9, mCol)
	if got, want := a9.FloatAt(123), 90000.0+123; got != want {
		t.Fatalf("row 9 elem = %v, want %v", got, want)
	}
	verifyInvariants(t, db2, "t")
}

// TestRecoverFileBackedAcrossRestart runs the durable configuration —
// pages.FileDisk for the data file, a wal.DirStorage log — through a
// checkpoint, post-checkpoint DML and two restarts. A restart closes the
// log and the disk without flushing the pool, so every change after the
// last checkpoint comes back from the log only.
func TestRecoverFileBackedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	type restartable struct {
		db   *DB
		log  *wal.Log
		disk *pages.FileDisk
	}
	open := func() restartable {
		t.Helper()
		disk, err := pages.OpenFileDisk(filepath.Join(dir, "data.db"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := wal.NewDirStorage(filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		l := openWAL(t, st)
		db, err := Open(Options{Disk: disk, PoolPages: 512, WAL: l})
		if err != nil {
			t.Fatalf("engine.Open: %v", err)
		}
		return restartable{db, l, disk}
	}
	restart := func(r restartable) restartable {
		t.Helper()
		if err := r.log.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.disk.Close(); err != nil {
			t.Fatal(err)
		}
		return open()
	}
	type row struct {
		x float64
		m []byte
	}
	rng := rand.New(rand.NewSource(28))
	// Seeded random floats do not compress, so each value is stored as
	// raw blocks: more than 3 blocks of payload spans at least 4 chunks.
	maxValue := func() []byte {
		vals := make([]float64, 3*blob.BlockSize/8+100)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		a, err := core.FromFloat64s(core.Max, core.Float64, vals, len(vals))
		if err != nil {
			t.Fatal(err)
		}
		return a.Bytes()
	}
	model := map[int64]row{}
	check := func(db *DB) {
		t.Helper()
		tbl, err := db.Table("t")
		if err != nil {
			t.Fatalf("recovered catalog: %v", err)
		}
		for k, want := range model {
			vals, err := tbl.Get(k)
			if err != nil {
				t.Fatalf("Get(%d): %v", k, err)
			}
			if vals[0].I != k || vals[1].F != want.x {
				t.Fatalf("row %d = (%d, %v), want (%d, %v)", k, vals[0].I, vals[1].F, k, want.x)
			}
			got, err := resolveMax(tbl, vals[2].B)
			if err != nil {
				t.Fatalf("ResolveMax(%d): %v", k, err)
			}
			if !bytes.Equal(got, want.m) {
				t.Fatalf("row %d: MAX value differs (%d bytes, want %d)", k, len(got), len(want.m))
			}
		}
		if got := tbl.Rows(); got != int64(len(model)) || got != walkedRows(t, tbl) {
			t.Fatalf("Rows() = %d, model holds %d, a cursor walks %d", got, len(model), walkedRows(t, tbl))
		}
		verifyInvariants(t, db, "t")
	}

	r := open()
	tbl, err := r.db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(k int64) {
		t.Helper()
		w := row{x: float64(k) / 4, m: maxValue()}
		if err := tbl.Insert([]Value{IntValue(k), FloatValue(w.x), BinaryMaxValue(w.m)}); err != nil {
			t.Fatal(err)
		}
		model[k] = w
	}
	for k := int64(0); k < 12; k++ {
		insert(k)
	}
	if err := r.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k := int64(12); k < 16; k++ {
		insert(k)
	}
	m5 := maxValue()
	if err := inTx(r.db, func(tx *Tx) error {
		return tbl.UpdateTx(tx, 5, []int{2}, []Value{BinaryMaxValue(m5)})
	}); err != nil {
		t.Fatal(err)
	}
	model[5] = row{x: model[5].x, m: m5}
	if err := inTx(r.db, func(tx *Tx) error { return tbl.DeleteTx(tx, 9) }); err != nil {
		t.Fatal(err)
	}
	delete(model, 9)
	// An aborted session inserts and deletes rows; none of it may show,
	// before the restart or after it.
	tx, err := r.db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertTx(tx, []Value{IntValue(100), FloatValue(1), BinaryMaxValue(maxValue())}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.DeleteTx(tx, 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.DeleteTx(tx, 4); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	check(r.db)

	r = restart(r)
	check(r.db)
	if err := r.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r = restart(r)
	check(r.db)
	if err := r.log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.disk.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverDiscardsUncommittedTail(t *testing.T) {
	disk := pages.NewMemDisk()
	st := wal.NewMemStorage()
	db := openDB(t, disk, st)
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{IntValue(1), FloatValue(1), Null}); err != nil {
		t.Fatal(err)
	}
	// Forge an uncommitted tail: page images synced to the log with no
	// commit record after them (a statement that died mid-commit). The
	// images are garbage pages that must NOT be applied.
	junk := make([]byte, 4+pages.PageSize)
	junk[0] = 2 // page id 2 (a live page of the tree or blob space)
	for i := 4; i < len(junk); i++ {
		junk[i] = 0xFF
	}
	if _, err := db.WAL().Append(wal.RecPageImage, junk); err != nil {
		t.Fatal(err)
	}
	if err := db.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	db2 := openDB(t, disk, st)
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl2.Rows(); got != 1 {
		t.Fatalf("rows = %d, want 1", got)
	}
	if _, err := tbl2.Get(1); err != nil {
		t.Fatalf("committed row lost: %v", err)
	}
	// The tail was truncated: fresh DML appends after the commit
	// boundary and a second recovery still converges.
	if err := tbl2.Insert([]Value{IntValue(2), FloatValue(2), Null}); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	db3 := openDB(t, disk, st)
	tbl3, err := db3.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl3.Rows(); got != 2 {
		t.Fatalf("after second recovery rows = %d, want 2", got)
	}
	verifyInvariants(t, db3, "t")
}

func TestRecoverRepairsTornPageWrite(t *testing.T) {
	mem := pages.NewMemDisk()
	fd := pages.NewFaultDisk(mem)
	st := wal.NewMemStorage()
	db := openDB(t, fd, st)
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := tbl.Insert([]Value{
			IntValue(i), FloatValue(float64(i)), BinaryMaxValue(bigArray(t, 500, float64(i)).Bytes()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint's FlushAll dies on its 4th write, tearing that page
	// half-old/half-new on the platter. No checkpoint record is written.
	fd.FailAfterWrites(3, true)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint survived an injected torn write")
	}
	if !fd.Fired() {
		t.Fatal("fault never fired")
	}
	st.Crash()
	fd.Heal()
	// Recovery over the torn platter: every committed page image since
	// the (nonexistent) checkpoint is reapplied, overwriting the torn
	// page with its logged after-image.
	db2 := openDB(t, fd, st)
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl2.Rows(); got != 20 {
		t.Fatalf("rows = %d, want 20", got)
	}
	for i := int64(0); i < 20; i++ {
		a := fetchArray(t, tbl2, i, 2)
		if got, want := a.FloatAt(100), float64(i)+100; got != want {
			t.Fatalf("row %d elem 100 = %v, want %v", i, got, want)
		}
	}
	verifyInvariants(t, db2, "t")
}

// TestSubarrayUpdateTouchesFewerChunks is the write-side mirror of the
// PR 4 read-pushdown test: an in-place subarray update of a multi-chunk
// array must write (and log) strictly fewer chunk pages than rewriting
// the whole blob.
func TestSubarrayUpdateTouchesFewerChunks(t *testing.T) {
	disk := pages.NewMemDisk()
	st := wal.NewMemStorage()
	db := openDB(t, disk, st)
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	const elems = 16000 // 128 kB payload: 16 chunks
	whole := bigArray(t, elems, 0)
	nChunks := blob.NumChunks(int64(len(whole.Bytes())))
	if nChunks < 16 {
		t.Fatalf("test array spans only %d chunks", nChunks)
	}
	if err := tbl.Insert([]Value{IntValue(1), FloatValue(0), BinaryMaxValue(whole.Bytes())}); err != nil {
		t.Fatal(err)
	}

	patch, err := core.FromFloat64s(core.Short, core.Float64, []float64{1, 2, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	chunks := func() uint64 { return metric(t, db.Metrics(), "blob.chunks_written") }
	records := func() uint64 { return metric(t, db.Metrics(), "wal.records") }
	b0, w0 := chunks(), records()
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.UpdateBlobSubarrayTx(tx, 1, 2, []int{8000}, []int{4}, patch)
	}); err != nil {
		t.Fatal(err)
	}
	b1, w1 := chunks(), records()
	subChunks, subRecords := b1-b0, w1-w0

	// Whole-blob rewrite of the same column for comparison.
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.UpdateTx(tx, 1, []int{2}, []Value{BinaryMaxValue(bigArray(t, elems, 5).Bytes())})
	}); err != nil {
		t.Fatal(err)
	}
	fullChunks, fullRecords := chunks()-b1, records()-w1

	if subChunks == 0 || subChunks >= uint64(nChunks) {
		t.Fatalf("subarray update wrote %d chunks; want 0 < n < %d", subChunks, nChunks)
	}
	if subChunks >= fullChunks {
		t.Fatalf("subarray update wrote %d chunks, not strictly below the %d of a whole-blob rewrite",
			subChunks, fullChunks)
	}
	if subRecords >= fullRecords {
		t.Fatalf("subarray update logged %d records, not strictly below the %d of a whole-blob rewrite",
			subRecords, fullRecords)
	}
	t.Logf("subarray: %d chunks written, %d WAL records; whole rewrite: %d chunks, %d records",
		subChunks, subRecords, fullChunks, fullRecords)
	verifyInvariants(t, db, "t")
}

// TestUpdateDeleteAccounting exercises the DML bookkeeping without a
// crash: counters, key relocation, blob free-list routing.
func TestUpdateDeleteAccounting(t *testing.T) {
	db := memDB(t)
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	big := bigArray(t, 3000, 1)
	if err := tbl.Insert([]Value{IntValue(1), FloatValue(1), BinaryMaxValue(big.Bytes())}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{IntValue(2), FloatValue(2), Null}); err != nil {
		t.Fatal(err)
	}
	// The first overwrite writes the new blob before freeing the old one
	// (failure safety), growing the file once by one blob footprint;
	// from then on rewrites recycle the freed pages and the file stops
	// growing — the leak regression.
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.UpdateTx(tx, 1, []int{2}, []Value{BinaryMaxValue(bigArray(t, 3000, 9).Bytes())})
	}); err != nil {
		t.Fatal(err)
	}
	baselinePages := db.Pool().Disk().NumPages()
	for round := 0; round < 4; round++ {
		if err := inTx(tbl.db, func(tx *Tx) error {
			return tbl.UpdateTx(tx, 1, []int{2}, []Value{BinaryMaxValue(bigArray(t, 3000, float64(round)).Bytes())})
		}); err != nil {
			t.Fatal(err)
		}
		if got := db.Pool().Disk().NumPages(); got != baselinePages {
			t.Fatalf("round %d: blob overwrite grew the file %d -> %d pages", round, baselinePages, got)
		}
	}

	// Key relocation: moving id 2 -> 5.
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.UpdateTx(tx, 2, []int{0}, []Value{IntValue(5)})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(2); !errors.Is(err, btree.ErrNotFound) {
		t.Fatalf("old key still present: %v", err)
	}
	if _, err := tbl.Get(5); err != nil {
		t.Fatalf("moved row missing: %v", err)
	}
	// Moving onto an existing key fails cleanly.
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.UpdateTx(tx, 5, []int{0}, []Value{IntValue(1)})
	}); err == nil {
		t.Fatal("key collision not detected")
	}

	// Delete frees the blob; rows and counters settle.
	if err := inTx(tbl.db, func(tx *Tx) error {
		return tbl.DeleteTx(tx, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rows(); got != 1 {
		t.Fatalf("rows = %d, want 1", got)
	}
	st, err := tbl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BlobBytes != 0 {
		t.Fatalf("blobBytes = %d after deleting the only blob row", st.BlobBytes)
	}
	if metric(t, db.Metrics(), "blob.pages_freed") == 0 {
		t.Fatal("delete did not route through blob.Free")
	}
	verifyInvariants(t, db, "t")
}
