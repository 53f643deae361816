package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func sameValue(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case ColInt64:
		return a.I == b.I
	case ColFloat64:
		return a.F == b.F || (math.IsNaN(a.F) && math.IsNaN(b.F))
	case ColVarBinary, ColVarBinaryMax:
		return bytes.Equal(a.B, b.B)
	}
	return true
}

// randomValues draws n values; uniform keeps every non-NULL one of one
// kind, as a table column's are.
func randomValues(rng *rand.Rand, n int, uniform bool) []Value {
	kinds := []ColType{ColInt64, ColFloat64, ColVarBinary, ColVarBinaryMax}
	kind := kinds[rng.Intn(len(kinds))]
	vals := make([]Value, n)
	for i := range vals {
		if rng.Intn(5) == 0 {
			continue // NULL
		}
		if !uniform {
			kind = kinds[rng.Intn(len(kinds))]
		}
		switch kind {
		case ColInt64:
			vals[i] = IntValue(rng.Int63() - 1<<62)
		case ColFloat64:
			vals[i] = FloatValue(rng.NormFloat64())
		default:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			vals[i] = Value{Kind: kind, B: b}
		}
	}
	return vals
}

// TestVectorSetValueCompact: whatever mix of kinds and NULLs is Set, Value
// reads it back, also after a Compact and after the vector is reused.
func TestVectorSetValueCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var v Vector
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(200)
		uniform := rng.Intn(2) == 0
		vals := randomValues(rng, n, uniform)
		v.Reset(0, n)
		for i, x := range vals {
			v.Set(i, x)
		}
		if uniform && !v.Uniform() {
			t.Fatalf("round %d: uniform input made a per-row-kind vector", round)
		}
		for i, want := range vals {
			if got := v.Value(i); !sameValue(got, want) {
				t.Fatalf("round %d row %d: %v, want %v", round, i, got, want)
			}
			if v.IsNull(i) != want.IsNull() {
				t.Fatalf("round %d row %d: IsNull = %v", round, i, v.IsNull(i))
			}
		}
		var sel []int
		for i := range vals {
			if rng.Intn(3) != 0 {
				sel = append(sel, i)
			}
		}
		v.Compact(sel)
		for j, i := range sel {
			if got := v.Value(j); !sameValue(got, vals[i]) {
				t.Fatalf("round %d: compacted row %d (was %d): %v, want %v", round, j, i, got, vals[i])
			}
		}
		for j := len(sel); j < n; j++ {
			if v.IsNull(j) {
				t.Fatalf("round %d: NULL bit left at %d past the %d compacted rows", round, j, len(sel))
			}
		}
	}
}

func TestVectorConst(t *testing.T) {
	var v Vector
	for _, val := range []Value{IntValue(7), FloatValue(2.5), BinaryValue([]byte("ab")), Null} {
		v.SetConst(val)
		for _, i := range []int{0, 1, 63, 64, 1000} {
			if got := v.Value(i); !sameValue(got, val) {
				t.Errorf("const %v row %d: %v", val, i, got)
			}
			if v.IsNull(i) != val.IsNull() {
				t.Errorf("const %v row %d: IsNull = %v", val, i, v.IsNull(i))
			}
		}
	}
}

// callBatchRegistry registers the UDFs the CallBatch tests use.
func callBatchRegistry() *FuncRegistry {
	r := newFuncRegistry()
	// echo hands back its own argument: on the hosted side that value
	// aliases the pooled argument buffer.
	r.Register("t.echo", 1, func(args []Value) (Value, error) { return args[0], nil })
	r.Register("t.failAt6", 2, func(args []Value) (Value, error) {
		if args[0].I == 6 {
			return Null, fmt.Errorf("boom at %d", args[0].I)
		}
		return args[1], nil
	})
	return r
}

// TestCallBatchMatchesCall: over random argument columns — mixed kinds,
// NULLs, constants — CallBatch stores what Call returns row by row, and
// charges the boundary counters the same.
func TestCallBatchMatchesCall(t *testing.T) {
	r := callBatchRegistry()
	r.Register("t.second", 3, func(args []Value) (Value, error) { return args[1], nil })
	def, _ := r.Lookup("t.second")
	rng := rand.New(rand.NewSource(2))
	var out Vector
	for round := 0; round < 100; round++ {
		n := 1 + rng.Intn(150)
		cols := make([][]Value, 3)
		args := make([]*Vector, 3)
		for k := range args {
			args[k] = new(Vector)
			if rng.Intn(4) == 0 {
				c := randomValues(rng, 1, true)[0]
				args[k].SetConst(c)
				cols[k] = make([]Value, n)
				for i := range cols[k] {
					cols[k][i] = c
				}
				continue
			}
			cols[k] = randomValues(rng, n, rng.Intn(2) == 0)
			args[k].Reset(0, n)
			for i, x := range cols[k] {
				args[k].Set(i, x)
			}
		}
		s0 := crossings(r)
		if err := r.CallBatch(nil, def, args, n, &out); err != nil {
			t.Fatal(err)
		}
		s1 := crossings(r)
		for i := 0; i < n; i++ {
			want, err := r.Call(def, []Value{cols[0][i], cols[1][i], cols[2][i]})
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Value(i); !sameValue(got, want) {
				t.Fatalf("round %d row %d: batch %v, call %v", round, i, got, want)
			}
		}
		s2 := crossings(r)
		if s1.calls-s0.calls != uint64(n) || s1.calls-s0.calls != s2.calls-s1.calls {
			t.Fatalf("round %d: batch counted %d calls, row-wise %d", round, s1.calls-s0.calls, s2.calls-s1.calls)
		}
		if s1.bytes-s0.bytes != s2.bytes-s1.bytes {
			t.Fatalf("round %d: batch marshaled %d bytes, row-wise %d", round,
				s1.bytes-s0.bytes, s2.bytes-s1.bytes)
		}
	}
}

// TestCallBatchErrorAtRowK: a UDF failing at row k of a batch surfaces
// that row's error, having called rows 0..k and none after.
func TestCallBatchErrorAtRowK(t *testing.T) {
	r := callBatchRegistry()
	def, _ := r.Lookup("t.failAt6")
	var ids, vals, out Vector
	ids.Reset(ColInt64, 10)
	vals.Reset(ColFloat64, 10)
	for i := 0; i < 10; i++ {
		ids.I[i], vals.F[i] = int64(i), float64(i)/2
	}
	err := r.CallBatch(nil, def, []*Vector{&ids, &vals}, 10, &out)
	if err == nil || err.Error() != "boom at 6" {
		t.Fatalf("err = %v, want row 6's", err)
	}
	if got := crossings(r).calls; got != 7 {
		t.Errorf("%d calls, want 7 (rows 0..6)", got)
	}
	// The counters cover the rows that crossed, as seven Calls would.
	rowwise := callBatchRegistry()
	for i := 0; i < 7; i++ {
		rowwise.Call(def, []Value{ids.Value(i), vals.Value(i)})
	}
	if got, want := crossings(r), crossings(rowwise); got != want {
		t.Errorf("stats after the error = %+v, row-wise %+v", got, want)
	}
	if err := r.CallBatch(nil, def, []*Vector{&ids}, 10, &out); err == nil {
		t.Error("arity violation must fail")
	}
	// The same rows without the failing one go through.
	if err := r.CallBatch(nil, def, []*Vector{&ids, &vals}, 6, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.Value(5); got.F != 2.5 {
		t.Errorf("row 5 = %v", got)
	}
}

// TestBoundaryResultSurvivesRecycledBuffer: a UDF returning its own
// argument bytes hands back a slice of the pooled boundary buffer; the
// caller's result must not change when that buffer is reused.
func TestBoundaryResultSurvivesRecycledBuffer(t *testing.T) {
	r := callBatchRegistry()
	def, _ := r.Lookup("t.echo")
	row := func(i int, fill byte) []byte { return bytes.Repeat([]byte{fill + byte(i)}, 50+i) }

	var in, out, in2, out2 Vector
	const n = 20
	in.Reset(ColVarBinary, n)
	in2.Reset(ColVarBinary, n)
	for i := 0; i < n; i++ {
		in.B[i], in2.B[i] = row(i, 'a'), row(i, 'A')
	}
	if err := r.CallBatch(nil, def, []*Vector{&in}, n, &out); err != nil {
		t.Fatal(err)
	}
	single, err := r.Call(def, []Value{BinaryValue(row(0, 'a'))})
	if err != nil {
		t.Fatal(err)
	}
	// Same-shaped traffic over the same pooled buffer.
	for k := 0; k < 3; k++ {
		if err := r.CallBatch(nil, def, []*Vector{&in2}, n, &out2); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Call(def, []Value{BinaryValue(row(0, 'A'))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if got := out.Value(i); !bytes.Equal(got.B, row(i, 'a')) {
			t.Fatalf("batch result row %d overwritten: %q", i, got.B)
		}
	}
	if !bytes.Equal(single.B, row(0, 'a')) {
		t.Fatalf("Call result overwritten: %q", single.B)
	}
}

// TestCallBatchLargeRowsCrossInRuns: a batch whose argument frames
// exceed maxRunBytes many times over is marshaled a run at a time — the
// pooled buffer ends up near one run, not one batch — with the results
// and the counters of row-wise Calls.
func TestCallBatchLargeRowsCrossInRuns(t *testing.T) {
	r := callBatchRegistry()
	r.Register("t.sumLen", 2, func(args []Value) (Value, error) {
		return IntValue(int64(len(args[0].B)) + args[1].I), nil
	})
	def, _ := r.Lookup("t.sumLen")
	const n, rowBytes = 96, 100 << 10
	var blobs, ids, out Vector
	blobs.Reset(ColVarBinaryMax, n)
	ids.Reset(ColInt64, n)
	for i := 0; i < n; i++ {
		blobs.B[i], ids.I[i] = make([]byte, rowBytes+i), int64(i)
	}
	// Only this test's boundary may come back out of the pool.
	boundaryPool = sync.Pool{New: func() any { return new(boundary) }}
	s0 := crossings(r)
	if err := r.CallBatch(nil, def, []*Vector{&blobs, &ids}, n, &out); err != nil {
		t.Fatal(err)
	}
	s1 := crossings(r)
	b := boundaryPool.Get().(*boundary)
	// Under -race sync.Pool drops a share of Puts on purpose and Get hands
	// back a fresh boundary; cross again until the used one comes back.
	for try := 0; cap(b.buf) == 0 && try < 50; try++ {
		var again Vector
		if err := r.CallBatch(nil, def, []*Vector{&blobs, &ids}, n, &again); err != nil {
			t.Fatal(err)
		}
		b = boundaryPool.Get().(*boundary)
	}
	if got := cap(b.buf); got == 0 || got > 2*(maxRunBytes+rowBytes) {
		t.Errorf("boundary buffer grew to %d bytes for %d-byte rows; a run is %d", got, rowBytes, maxRunBytes)
	}
	rowwise0 := crossings(r)
	for i := 0; i < n; i++ {
		want, err := r.Call(def, []Value{blobs.Value(i), ids.Value(i)})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Value(i); !sameValue(got, want) {
			t.Fatalf("row %d: batch %v, call %v", i, got, want)
		}
	}
	s2 := crossings(r)
	if s1.calls-s0.calls != n || s1.bytes-s0.bytes != s2.bytes-rowwise0.bytes {
		t.Errorf("batch counted %d calls / %d bytes, row-wise %d / %d", s1.calls-s0.calls,
			s1.bytes-s0.bytes, s2.calls-rowwise0.calls, s2.bytes-rowwise0.bytes)
	}
}

func TestCallBatchNoArgs(t *testing.T) {
	r := newFuncRegistry()
	calls := 0
	r.Register("t.tick", 0, func([]Value) (Value, error) { calls++; return IntValue(int64(calls)), nil })
	def, _ := r.Lookup("t.tick")
	var out Vector
	if err := r.CallBatch(nil, def, nil, 5, &out); err != nil {
		t.Fatal(err)
	}
	if calls != 5 || out.Value(4).I != 5 {
		t.Errorf("calls = %d, row 4 = %v", calls, out.Value(4))
	}
	if _, err := r.Call(def, []Value{Null}); err == nil || errors.Is(err, ErrNoFunc) {
		t.Errorf("arity violation: %v", err)
	}
}

// TestFillBatchMatchesRowView: FillBatch decodes, for any subset of the
// columns and any batch size, exactly what Next + RowView.Col yield.
func TestFillBatchMatchesRowView(t *testing.T) {
	db := memDB(t)
	s, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "i", Type: ColInt64},
		Column{Name: "f", Type: ColFloat64},
		Column{Name: "b", Type: ColVarBinary},
		Column{Name: "m", Type: ColVarBinaryMax},
		Column{Name: "g", Type: ColFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const rows = 700
	for id := int64(0); id < rows; id++ {
		row := []Value{IntValue(id), Null, Null, Null, Null, FloatValue(float64(id) / 4)}
		if rng.Intn(4) != 0 {
			row[1] = IntValue(rng.Int63n(100))
		}
		if rng.Intn(4) != 0 {
			row[2] = FloatValue(rng.NormFloat64())
		}
		if rng.Intn(4) != 0 {
			row[3] = BinaryValue(bytes.Repeat([]byte{byte(id)}, rng.Intn(300)))
		}
		if rng.Intn(4) != 0 {
			row[4] = BinaryMaxValue(bytes.Repeat([]byte{byte(id)}, 10+rng.Intn(100)))
		}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	defer snap.Release()
	for _, need := range [][]bool{
		{true, true, true, true, true, true},
		{false, false, true, false, false, false},
		{false, false, false, true, false, true},
		{false, false, false, false, false, false},
	} {
		for _, size := range []int{1, 7, 256} {
			ref, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]int64, size)
			cols := make([]*Vector, len(need))
			for ci, use := range need {
				if use {
					cols[ci] = new(Vector)
				}
			}
			total := 0
			for {
				n, err := cur.FillBatch(keys, cols)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if !ref.Next() {
						t.Fatalf("FillBatch yielded more than %d rows", total+i)
					}
					if keys[i] != ref.Key() {
						t.Fatalf("key %d, want %d", keys[i], ref.Key())
					}
					for ci, v := range cols {
						if v == nil {
							continue
						}
						want, err := ref.Row().Col(ci)
						if err != nil {
							t.Fatal(err)
						}
						if got := v.Value(i); !sameValue(got, want) {
							t.Fatalf("need %v size %d key %d col %d: %v, want %v", need, size, keys[i], ci, got, want)
						}
					}
				}
				total += n
				if n < size {
					break
				}
			}
			if total != rows || ref.Next() {
				t.Fatalf("need %v size %d: %d rows, want %d", need, size, total, rows)
			}
			cur.Close()
			ref.Close()
		}
	}
	if pins := db.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames left pinned", pins)
	}
}

// TestFillBatchBoundsReferencedBlobBytes: a fill over rows that reference
// large out-of-row arrays ends once they add up to maxBatchBlobBytes —
// after at least one row, however large — while rows referencing small
// ones still fill to the row capacity.
func TestFillBatchBoundsReferencedBlobBytes(t *testing.T) {
	db := memDB(t)
	s, err := NewSchema(Column{Name: "id", Type: ColInt64}, Column{Name: "m", Type: ColVarBinaryMax})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", s)
	if err != nil {
		t.Fatal(err)
	}
	const rows, small, large = 40, 100, 300 << 10
	for id := int64(0); id < rows; id++ {
		size := small
		if id >= 20 {
			size = large
		}
		if id == 30 {
			size = 3 * maxBatchBlobBytes
		}
		if err := tbl.Insert([]Value{IntValue(id), BinaryMaxValue(make([]byte, size))}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	defer snap.Release()
	cur, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	keys := make([]int64, 16)
	cols := []*Vector{nil, new(Vector)}
	var fills []int
	for next := int64(0); ; {
		n, err := cur.FillBatch(keys, cols)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		fills = append(fills, n)
		for i := 0; i < n; i, next = i+1, next+1 {
			if keys[i] != next {
				t.Fatalf("fill %d row %d has key %d, want %d", len(fills), i, keys[i], next)
			}
		}
	}
	// 16 small rows; 4 small + 4 large (the fourth crosses 1 MiB); 4 large;
	// 2 large + the 3 MiB row on its own account; then 4, 4 and the last 1.
	if want := []int{16, 8, 4, 3, 4, 4, 1}; fmt.Sprint(fills) != fmt.Sprint(want) {
		t.Errorf("fills = %v, want %v", fills, want)
	}
	// A scan that does not decode the MAX column is bounded by rows only.
	cur2, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	if n, err := cur2.FillBatch(make([]int64, rows), []*Vector{new(Vector), nil}); n != rows || err != nil {
		t.Errorf("key-only fill = %d, %v; want %d", n, err, rows)
	}
}
