package engine

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"sqlarray/internal/obs"
)

// memDB opens an in-memory database without a log.
func memDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// metric reads one series of a metrics registry. A name the registry
// does not hold fails the test, so a misspelt name cannot pass an == 0
// check.
func metric(t testing.TB, reg *obs.Registry, name string) uint64 {
	t.Helper()
	v, ok := reg.Snapshot()[name]
	if !ok {
		t.Fatalf("metrics registry has no series %q", name)
	}
	return v
}

// crossing is a test's reading of a function registry's boundary
// counters, udf.calls and udf.bytes_marshaled.
type crossing struct{ calls, bytes uint64 }

func crossings(r *FuncRegistry) crossing {
	return crossing{r.calls.Load(), r.bytesMarshaled.Load()}
}

// resolveMax is ResolveMaxAt on a snapshot of the latest commit.
func resolveMax(tbl *Table, ref []byte) ([]byte, error) {
	s := tbl.db.Snapshot()
	defer s.Release()
	return tbl.ResolveMaxAt(s, ref)
}

// inTx runs fn as a single-statement write session of db, committing it
// when fn succeeds and aborting it when fn fails — the way the tests
// call UpdateTx, DeleteTx and UpdateBlobSubarrayTx one statement at a
// time.
func inTx(db *DB, fn func(tx *Tx) error) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	return tx.Close(fn(tx))
}

// walkedRows counts the keys a cursor over a fresh snapshot yields —
// what Rows must equal, since the tree's count is the only row count.
func walkedRows(t *testing.T, tbl *Table) int64 {
	t.Helper()
	s := tbl.db.Snapshot()
	defer s.Release()
	cur, err := tbl.CursorRangeAt(s, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := int64(0)
	for cur.Next() {
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// scanRows calls fn with every row of tbl in key order as of a fresh
// snapshot, decoded by FillBatch with every column requested. The row
// and its binary values are only valid inside fn; fn returning false
// stops the scan.
func scanRows(tbl *Table, fn func(key int64, row []Value) (bool, error)) error {
	s := tbl.db.Snapshot()
	defer s.Release()
	return scanRowsAt(tbl, s, fn)
}

// scanRowsAt is scanRows as of the snapshot s.
func scanRowsAt(tbl *Table, s *Snapshot, fn func(key int64, row []Value) (bool, error)) error {
	cur, err := tbl.CursorRangeAt(s, math.MinInt64, math.MaxInt64)
	if err != nil {
		return err
	}
	defer cur.Close()
	keys := make([]int64, 64)
	cols := make([]*Vector, len(tbl.schema.Columns))
	for ci := range cols {
		cols[ci] = new(Vector)
	}
	row := make([]Value, len(cols))
	for {
		n, err := cur.FillBatch(keys, cols)
		if err != nil || n == 0 {
			return err
		}
		for i := 0; i < n; i++ {
			for ci, v := range cols {
				row[ci] = v.Value(i)
			}
			if ok, err := fn(keys[i], row); !ok || err != nil {
				return err
			}
		}
	}
}

// callNamed resolves a function by name and invokes it on one row.
func callNamed(r *FuncRegistry, name string, args []Value) (Value, error) {
	def, err := r.Lookup(name)
	if err != nil {
		return Null, err
	}
	return r.Call(def, args)
}

func testSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(
		Column{"id", ColInt64},
		Column{"x", ColFloat64},
		Column{"v", ColVarBinary},
		Column{"big", ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema must fail")
	}
	if _, err := NewSchema(Column{"x", ColFloat64}); !errors.Is(err, ErrTypeError) {
		t.Errorf("non-BIGINT key: %v", err)
	}
	if _, err := NewSchema(Column{"id", ColInt64}, Column{"id", ColFloat64}); err == nil {
		t.Error("duplicate column must fail")
	}
	s := testSchema(t)
	if s.ColIndex("v") != 2 || s.ColIndex("nope") != -1 {
		t.Error("ColIndex wrong")
	}
}

func TestValueCoercions(t *testing.T) {
	if f, err := IntValue(3).AsFloat(); err != nil || f != 3 {
		t.Errorf("int->float: %g, %v", f, err)
	}
	if i, err := FloatValue(3.9).AsInt(); err != nil || i != 3 {
		t.Errorf("float->int: %d, %v", i, err)
	}
	if _, err := BinaryValue(nil).AsFloat(); !errors.Is(err, ErrTypeError) {
		t.Errorf("binary->float: %v", err)
	}
	if _, err := Null.AsFloat(); !errors.Is(err, ErrNullValue) {
		t.Errorf("null->float: %v", err)
	}
	if b, err := BinaryValue([]byte{1}).AsBinary(); err != nil || len(b) != 1 {
		t.Errorf("binary: %v, %v", b, err)
	}
	if !Null.IsNull() || IntValue(0).IsNull() {
		t.Error("null detection wrong")
	}
	for _, v := range []Value{Null, IntValue(5), FloatValue(2.5), BinaryValue([]byte{1, 2})} {
		if v.String() == "" {
			t.Error("empty String()")
		}
	}
}

func TestRowEncodeDecodeRoundtrip(t *testing.T) {
	s := testSchema(t)
	// big column holds an encoded ref in real rows; fake one here (12 bytes).
	vals := []Value{
		IntValue(42),
		FloatValue(3.25),
		BinaryValue([]byte{9, 8, 7}),
		BinaryMaxValue(make([]byte, 12)),
	}
	raw, err := encodeRow(&s, vals)
	if err != nil {
		t.Fatal(err)
	}
	row, err := decodeAll(&s, raw)
	if err != nil {
		t.Fatal(err)
	}
	if v := row[0]; v.I != 42 {
		t.Errorf("col 0 = %v", v)
	}
	if v := row[1]; v.F != 3.25 {
		t.Errorf("col 1 = %v", v)
	}
	if v := row[2]; !bytes.Equal(v.B, []byte{9, 8, 7}) {
		t.Errorf("col 2 = %v", v)
	}
	if v := row[3]; v.Kind != ColVarBinaryMax || len(v.B) != 12 {
		t.Errorf("col 3 = %v", v)
	}
}

func TestRowNulls(t *testing.T) {
	s := testSchema(t)
	vals := []Value{IntValue(1), Null, Null, Null}
	raw, err := encodeRow(&s, vals)
	if err != nil {
		t.Fatal(err)
	}
	row, err := decodeAll(&s, raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if v := row[i]; !v.IsNull() {
			t.Errorf("col %d = %v; want NULL", i, v)
		}
	}
}

func TestRowEncodeErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := encodeRow(&s, []Value{IntValue(1)}); !errors.Is(err, ErrTypeError) {
		t.Errorf("arity: %v", err)
	}
	tooBig := make([]byte, 8001)
	if _, err := encodeRow(&s, []Value{IntValue(1), Null, BinaryValue(tooBig), Null}); !errors.Is(err, ErrTypeError) {
		t.Errorf("oversized VARBINARY: %v", err)
	}
	if _, err := encodeRow(&s, []Value{IntValue(1), BinaryValue([]byte{1}), Null, Null}); !errors.Is(err, ErrTypeError) {
		t.Errorf("binary in float column: %v", err)
	}
	if _, err := encodeRow(&s, []Value{IntValue(1), Null, Null, BinaryMaxValue([]byte{1})}); !errors.Is(err, ErrTypeError) {
		t.Errorf("non-ref in MAX column: %v", err)
	}
}

func TestTableInsertGetScan(t *testing.T) {
	db := memDB(t)
	tbl, err := db.CreateTable("t", testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 20000)
	for i := range big {
		big[i] = byte(i)
	}
	for i := int64(0); i < 100; i++ {
		err := tbl.Insert([]Value{
			IntValue(i),
			FloatValue(float64(i) / 2),
			BinaryValue([]byte{byte(i)}),
			BinaryMaxValue(big),
		})
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tbl.Rows() != 100 {
		t.Errorf("Rows = %d", tbl.Rows())
	}
	// Point lookup.
	row, err := tbl.Get(42)
	if err != nil {
		t.Fatal(err)
	}
	if row[1].F != 21 {
		t.Errorf("x = %v", row[1])
	}
	// The MAX column decodes to a ref; materialize it.
	got, err := resolveMax(tbl, row[3].B)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Error("blob roundtrip mismatch")
	}
	// Scan in key order.
	var keys []int64
	sum := 0.0
	err = scanRows(tbl, func(key int64, row []Value) (bool, error) {
		keys = append(keys, key)
		sum += row[1].F
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 100 || keys[0] != 0 || keys[99] != 99 {
		t.Errorf("scan keys wrong: %d keys", len(keys))
	}
	if sum != 99.0*100/4 {
		t.Errorf("scan sum = %g", sum)
	}
	// Early stop.
	n := 0
	err = scanRows(tbl, func(int64, []Value) (bool, error) { n++; return n < 10, nil })
	if err != nil || n != 10 {
		t.Errorf("early stop: n=%d, %v", n, err)
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after an early stop = %d", got)
	}
}

func TestDBCatalog(t *testing.T) {
	db := memDB(t)
	if _, err := db.Table("missing"); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
	s := testSchema(t)
	if _, err := db.CreateTable("t", s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", s); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate table: %v", err)
	}
	tbl, err := db.Table("t")
	if err != nil || tbl.Name() != "t" {
		t.Errorf("lookup: %v, %v", tbl, err)
	}
}

func TestTableStats(t *testing.T) {
	db := memDB(t)
	tbl, _ := db.CreateTable("t", testSchema(t))
	for i := int64(0); i < 1000; i++ {
		if err := tbl.Insert([]Value{IntValue(i), FloatValue(1), BinaryValue(make([]byte, 40)), Null}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tbl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 1000 || st.LeafPages < 5 || st.RowBytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUDFBoundary(t *testing.T) {
	r := newFuncRegistry()
	r.Register("dbo.AddOne", 1, func(args []Value) (Value, error) {
		f, err := args[0].AsFloat()
		if err != nil {
			return Null, err
		}
		return FloatValue(f + 1), nil
	})
	def, err := r.Lookup("DBO.addone") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Call(def, []Value{FloatValue(41)})
	if err != nil || out.F != 42 {
		t.Errorf("call = %v, %v", out, err)
	}
	// Arity enforcement.
	if _, err := r.Call(def, []Value{FloatValue(1), FloatValue(2)}); err == nil {
		t.Error("arity violation must fail")
	}
	if _, err := r.Lookup("nope"); !errors.Is(err, ErrNoFunc) {
		t.Errorf("missing func: %v", err)
	}
	st := crossings(r)
	if st.calls != 1 || st.bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(r.Names()) != 1 {
		t.Errorf("Names = %v", r.Names())
	}
}

func TestUDFBoundaryBinaryArgs(t *testing.T) {
	r := newFuncRegistry()
	r.Register("dbo.len", -1, func(args []Value) (Value, error) {
		b, err := args[0].AsBinary()
		if err != nil {
			return Null, err
		}
		return IntValue(int64(len(b))), nil
	})
	payload := make([]byte, 4096)
	out, err := callNamed(r, "dbo.len", []Value{BinaryValue(payload)})
	if err != nil || out.I != 4096 {
		t.Fatalf("call = %v, %v", out, err)
	}
	// Marshaling must have copied the payload across (arg + result).
	if crossings(r).bytes < 4096 {
		t.Errorf("BytesMarshaled = %d", crossings(r).bytes)
	}
	// NULL argument passes through.
	out, err = callNamed(r, "dbo.len", []Value{Null})
	if !errors.Is(err, ErrNullValue) {
		t.Errorf("null arg: %v, %v", out, err)
	}
}

func TestCursorStreamsRows(t *testing.T) {
	db := memDB(t)
	s, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "x", Type: ColFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		if err := tbl.Insert([]Value{IntValue(i), FloatValue(float64(i) * 1.5)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	defer snap.Release()
	cur, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for cur.Next() {
		if cur.Key() != n {
			t.Fatalf("key %d out of order (want %d)", cur.Key(), n)
		}
		row, err := tbl.GetAt(snap, cur.Key())
		if err != nil {
			t.Fatal(err)
		}
		if v := row[1]; v.F != float64(n)*1.5 {
			t.Fatalf("row %d col x = %v", n, v)
		}
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if n != 300 {
		t.Errorf("cursor yielded %d rows, want 300", n)
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after full cursor scan = %d", got)
	}
}

func TestCursorRangeAndEarlyClose(t *testing.T) {
	db := memDB(t)
	s, _ := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "x", Type: ColFloat64},
	)
	tbl, _ := db.CreateTable("t", s)
	for i := int64(0); i < 5000; i++ {
		if err := tbl.Insert([]Value{IntValue(i), FloatValue(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	defer snap.Release()
	// Range cursor yields exactly [lo, hi].
	cur, err := tbl.CursorRangeAt(snap, 1000, 1009)
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for cur.Next() {
		keys = append(keys, cur.Key())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if len(keys) != 10 || keys[0] != 1000 || keys[9] != 1009 {
		t.Errorf("range keys = %v", keys)
	}
	// Early Close (the TOP-n exit) releases all pins; the cache can be
	// dropped afterwards.
	cur, err = tbl.CursorRangeAt(snap, 2500, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() || cur.Key() != 2500 {
		t.Fatalf("cursor from 2500: first key = %d", cur.Key())
	}
	cur.Close()
	cur.Close() // idempotent
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after early Close = %d, want 0", got)
	}
	if err := db.DropCleanBuffers(); err != nil {
		t.Errorf("DropCleanBuffers after early Close: %v", err)
	}
}

func TestKeyBounds(t *testing.T) {
	db := memDB(t)
	s, _ := NewSchema(Column{Name: "id", Type: ColInt64})
	tbl, _ := db.CreateTable("t", s)
	empty := db.Snapshot()
	defer empty.Release()
	if _, _, ok, err := tbl.KeyBoundsAt(empty); err != nil || ok {
		t.Fatalf("empty table KeyBounds: ok=%v err=%v", ok, err)
	}
	for _, k := range []int64{-5, 7, 1000, 3} {
		if err := tbl.Insert([]Value{IntValue(k)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	defer snap.Release()
	min, max, ok, err := tbl.KeyBoundsAt(snap)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if min != -5 || max != 1000 {
		t.Errorf("KeyBounds = [%d, %d], want [-5, 1000]", min, max)
	}
}

// TestRowsCountsCommittedRowsOnly: Rows, like Get and Stats, reads the
// newest committed version — an open write session's inserts do not
// count until it commits, and never if it aborts.
func TestRowsCountsCommittedRowsOnly(t *testing.T) {
	db := memDB(t)
	s, _ := NewSchema(Column{Name: "id", Type: ColInt64})
	tbl, _ := db.CreateTable("t", s)
	if err := tbl.Insert([]Value{IntValue(0)}); err != nil {
		t.Fatal(err)
	}
	next := int64(1)
	session := func(finish func(*Tx) error) {
		t.Helper()
		before := tbl.Rows()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := tbl.InsertTx(tx, []Value{IntValue(next)}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if got := tbl.Rows(); got != before {
			t.Errorf("Rows inside an open session = %d, want the committed %d", got, before)
		}
		if err := finish(tx); err != nil {
			t.Fatal(err)
		}
	}
	session(func(tx *Tx) error { tx.Abort(); return nil })
	if got := tbl.Rows(); got != 1 || got != walkedRows(t, tbl) {
		t.Errorf("Rows after Abort = %d, want 1 = the keys a cursor walks (%d)", got, walkedRows(t, tbl))
	}
	session((*Tx).Commit)
	if got := tbl.Rows(); got != 4 {
		t.Errorf("Rows after Commit = %d, want 4", got)
	}
}
