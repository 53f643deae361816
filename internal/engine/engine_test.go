package engine

import (
	"bytes"
	"errors"
	"math"
	"testing"
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
	cur, err := tbl.CursorAt(s)
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
	var rv RowView
	rv.reset(&s, raw)
	if v, err := rv.Col(0); err != nil || v.I != 42 {
		t.Errorf("col 0 = %v, %v", v, err)
	}
	if v, err := rv.Col(1); err != nil || v.F != 3.25 {
		t.Errorf("col 1 = %v, %v", v, err)
	}
	if v, err := rv.Col(2); err != nil || !bytes.Equal(v.B, []byte{9, 8, 7}) {
		t.Errorf("col 2 = %v, %v", v, err)
	}
	if v, err := rv.Col(3); err != nil || len(v.B) != 12 {
		t.Errorf("col 3 = %v, %v", v, err)
	}
	if _, err := rv.Col(7); !errors.Is(err, ErrNoColumn) {
		t.Errorf("bad col: %v", err)
	}
	// Out-of-order access must work (offsets computed on demand).
	rv.reset(&s, raw)
	if v, err := rv.Col(2); err != nil || len(v.B) != 3 {
		t.Errorf("direct col 2 = %v, %v", v, err)
	}
}

func TestRowNulls(t *testing.T) {
	s := testSchema(t)
	vals := []Value{IntValue(1), Null, Null, Null}
	raw, err := encodeRow(&s, vals)
	if err != nil {
		t.Fatal(err)
	}
	var rv RowView
	rv.reset(&s, raw)
	for i := 1; i < 4; i++ {
		v, err := rv.Col(i)
		if err != nil || !v.IsNull() {
			t.Errorf("col %d = %v, %v; want NULL", i, v, err)
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
	err = tbl.Scan(func(key int64, rv *RowView) (bool, error) {
		keys = append(keys, key)
		v, err := rv.Col(1)
		if err != nil {
			return false, err
		}
		sum += v.F
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
	err = tbl.Scan(func(int64, *RowView) (bool, error) { n++; return n < 10, nil })
	if err != nil || n != 10 {
		t.Errorf("early stop: n=%d, %v", n, err)
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
	st := r.Stats()
	if st.Calls != 1 || st.BytesMarshaled == 0 {
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
	out, err := r.CallByName("dbo.len", []Value{BinaryValue(payload)})
	if err != nil || out.I != 4096 {
		t.Fatalf("call = %v, %v", out, err)
	}
	// Marshaling must have copied the payload across (arg + result).
	if r.Stats().BytesMarshaled < 4096 {
		t.Errorf("BytesMarshaled = %d", r.Stats().BytesMarshaled)
	}
	// NULL argument passes through.
	out, err = r.CallByName("dbo.len", []Value{Null})
	if !errors.Is(err, ErrNullValue) {
		t.Errorf("null arg: %v, %v", out, err)
	}
}

// sumAgg is a float SUM aggregate with serializable state.
type sumAgg struct {
	sum float64
	n   int64
}

func (a *sumAgg) Init() { a.sum, a.n = 0, 0 }
func (a *sumAgg) Accumulate(v Value) error {
	f, err := v.AsFloat()
	if err != nil {
		return err
	}
	a.sum += f
	a.n++
	return nil
}
func (a *sumAgg) Terminate() (Value, error) { return FloatValue(a.sum), nil }
func (a *sumAgg) Serialize(dst []byte) []byte {
	var b [16]byte
	v := marshalValue(nil, FloatValue(a.sum))
	copy(b[:], v[1:])
	v = marshalValue(nil, IntValue(a.n))
	copy(b[8:], v[1:])
	return append(dst, b[:]...)
}
func (a *sumAgg) Deserialize(src []byte) error {
	if len(src) < 16 {
		return errors.New("short state")
	}
	var v Value
	if _, err := unmarshalValue(append([]byte{byte(ColFloat64)}, src[:8]...), &v); err != nil {
		return err
	}
	a.sum = v.F
	if _, err := unmarshalValue(append([]byte{byte(ColInt64)}, src[8:16]...), &v); err != nil {
		return err
	}
	a.n = v.I
	return nil
}

func TestUDAvsDirectAggregate(t *testing.T) {
	db := memDB(t)
	s, _ := NewSchema(Column{"id", ColInt64}, Column{"x", ColFloat64})
	tbl, _ := db.CreateTable("t", s)
	want := 0.0
	for i := int64(0); i < 500; i++ {
		x := float64(i) * 1.5
		want += x
		if err := tbl.Insert([]Value{IntValue(i), FloatValue(x)}); err != nil {
			t.Fatal(err)
		}
	}
	var agg sumAgg
	out, st, err := RunAggregateUDA(tbl, 1, &agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.F != want {
		t.Errorf("UDA sum = %g, want %g", out.F, want)
	}
	if st.Rows != 500 || st.StateBytesMoved != 500*32 {
		t.Errorf("UDA stats = %+v (state must round-trip per row)", st)
	}
	out2, st2, err := RunAggregateDirect(tbl, 1, &agg)
	if err != nil {
		t.Fatal(err)
	}
	if out2.F != want {
		t.Errorf("direct sum = %g", out2.F)
	}
	if st2.StateBytesMoved != 0 {
		t.Errorf("direct run must not serialize state: %+v", st2)
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
	cur, err := tbl.CursorAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for cur.Next() {
		if cur.Key() != n {
			t.Fatalf("key %d out of order (want %d)", cur.Key(), n)
		}
		v, err := cur.Row().Col(1)
		if err != nil {
			t.Fatal(err)
		}
		if v.F != float64(n)*1.5 {
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
