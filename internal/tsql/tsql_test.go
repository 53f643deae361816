package tsql

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/sqlmini"
)

// newDB builds a registered database with a one-row "dual" table (the
// dialect requires a FROM clause) and a small array-valued table.
func newDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	RegisterAll(db)
	s, err := engine.NewSchema(engine.Column{Name: "id", Type: engine.ColInt64})
	if err != nil {
		t.Fatal(err)
	}
	dual, err := db.CreateTable("dual", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := dual.Insert([]engine.Value{engine.IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	return db
}

func query1(t *testing.T, db *engine.DB, q string) engine.Value {
	t.Helper()
	res, err := sqlmini.Run(db, q)
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	v, err := res.Scalar()
	if err != nil {
		t.Fatalf("Scalar(%q): %v", q, err)
	}
	return v
}

func TestPaperVectorItemExample(t *testing.T) {
	// §5.1: FloatArray.Vector_5(1.0,...,5.0) then Item_1(@a, 3) returns
	// "the third (zero indexed) element".
	db := newDB(t)
	v := query1(t, db,
		"SELECT FloatArray.Item_1(FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0), 3) FROM dual")
	if v.F != 4.0 {
		t.Errorf("Item_1(Vector_5, 3) = %v, want 4", v)
	}
}

func TestPaperMatrixExample(t *testing.T) {
	// §5.1: Matrix_2(0.1,0.2,0.3,0.4); Item_2(@m, 1, 0) — column-major,
	// so element (1,0) is the second listed value.
	db := newDB(t)
	v := query1(t, db,
		"SELECT FloatArray.Item_2(FloatArray.Matrix_2(0.1, 0.2, 0.3, 0.4), 1, 0) FROM dual")
	if v.F != 0.2 {
		t.Errorf("Item_2(Matrix_2, 1, 0) = %v, want 0.2", v)
	}
}

func TestUpdateItemValueSemantics(t *testing.T) {
	db := newDB(t)
	// UpdateItem returns a new blob; reading index 3 of the updated array.
	v := query1(t, db,
		"SELECT FloatArray.Item_1(FloatArray.UpdateItem_1(FloatArray.Vector_5(1,2,3,4,5), 3, 4.5), 3) FROM dual")
	if v.F != 4.5 {
		t.Errorf("updated element = %v, want 4.5", v)
	}
}

func TestSubarrayTSQLConvention(t *testing.T) {
	// The §5.1 Subarray example on a 10x10x10 max array.
	db := newDB(t)
	a, err := core.New(core.Max, core.Float64, 10, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		a.SetFloatAt(i, float64(i))
	}
	s, _ := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "a", Type: engine.ColVarBinaryMax},
	)
	tbl, err := db.CreateTable("cubes", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]engine.Value{engine.IntValue(1), engine.BinaryMaxValue(a.Bytes())}); err != nil {
		t.Fatal(err)
	}
	// Blob columns come back as refs; materialize through a scan is the
	// engine-level path — here exercise the pure-function path instead.
	sub, err := callNamed(db, "FloatArrayMax.Subarray", []engine.Value{
		engine.BinaryMaxValue(a.Bytes()),
		mustCall(t, db, "IntArray.Vector_3", engine.IntValue(1), engine.IntValue(4), engine.IntValue(6)),
		mustCall(t, db, "IntArray.Vector_3", engine.IntValue(5), engine.IntValue(5), engine.IntValue(3)),
		engine.IntValue(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Wrap(sub.B)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank() != 3 || got.Dim(0) != 5 || got.Dim(2) != 3 {
		t.Fatalf("sub dims = %v", got.Dims())
	}
	corner, _ := got.Item(0, 0, 0)
	want, _ := a.Item(1, 4, 6)
	if corner != want {
		t.Errorf("corner = %g, want %g", corner, want)
	}
	// Collapse flag drops unit dimensions.
	sub2, err := callNamed(db, "FloatArrayMax.Subarray", []engine.Value{
		engine.BinaryMaxValue(a.Bytes()),
		mustCall(t, db, "IntArray.Vector_3", engine.IntValue(0), engine.IntValue(0), engine.IntValue(0)),
		mustCall(t, db, "IntArray.Vector_3", engine.IntValue(10), engine.IntValue(1), engine.IntValue(1)),
		engine.IntValue(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := core.Wrap(sub2.B)
	if col.Rank() != 1 || col.Dim(0) != 10 {
		t.Errorf("collapsed dims = %v", col.Dims())
	}
}

// callNamed resolves a function by name and invokes it on one row.
func callNamed(db *engine.DB, name string, args []engine.Value) (engine.Value, error) {
	def, err := db.Funcs().Lookup(name)
	if err != nil {
		return engine.Null, err
	}
	return db.Funcs().Call(def, args)
}

func mustCall(t *testing.T, db *engine.DB, name string, args ...engine.Value) engine.Value {
	t.Helper()
	v, err := callNamed(db, name, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestTypeAndClassMismatchDetected(t *testing.T) {
	db := newDB(t)
	intVec := mustCall(t, db, "IntArray.Vector_2", engine.IntValue(1), engine.IntValue(2))
	// Passing an int array to a float function trips the header check.
	if _, err := callNamed(db, "FloatArray.Sum", []engine.Value{intVec}); !errors.Is(err, core.ErrTypeMismatch) {
		t.Errorf("type mismatch: %v", err)
	}
	// Passing a short array to a max function trips the class check.
	fv := mustCall(t, db, "FloatArray.Vector_2", engine.FloatValue(1), engine.FloatValue(2))
	if _, err := callNamed(db, "FloatArrayMax.Sum", []engine.Value{fv}); !errors.Is(err, core.ErrClassMismatch) {
		t.Errorf("class mismatch: %v", err)
	}
	// Garbage bytes trip the magic check.
	if _, err := callNamed(db, "FloatArray.Sum", []engine.Value{engine.BinaryValue([]byte{1, 2, 3})}); !errors.Is(err, core.ErrBadHeader) {
		t.Errorf("garbage blob: %v", err)
	}
}

func TestShapeInspection(t *testing.T) {
	db := newDB(t)
	m := mustCall(t, db, "FloatArray.Matrix_3",
		engine.FloatValue(1), engine.FloatValue(2), engine.FloatValue(3),
		engine.FloatValue(4), engine.FloatValue(5), engine.FloatValue(6),
		engine.FloatValue(7), engine.FloatValue(8), engine.FloatValue(9))
	if v := mustCall(t, db, "FloatArray.Length", m); v.I != 9 {
		t.Errorf("Length = %v", v)
	}
	if v := mustCall(t, db, "FloatArray.Rank", m); v.I != 2 {
		t.Errorf("Rank = %v", v)
	}
	if v := mustCall(t, db, "FloatArray.Dim", m, engine.IntValue(1)); v.I != 3 {
		t.Errorf("Dim = %v", v)
	}
	if _, err := callNamed(db, "FloatArray.Dim", []engine.Value{m, engine.IntValue(5)}); err == nil {
		t.Error("bad dim index must fail")
	}
}

func TestReshapeCastRawRoundtrip(t *testing.T) {
	db := newDB(t)
	v := mustCall(t, db, "FloatArray.Vector_6",
		engine.FloatValue(1), engine.FloatValue(2), engine.FloatValue(3),
		engine.FloatValue(4), engine.FloatValue(5), engine.FloatValue(6))
	m := mustCall(t, db, "FloatArray.Reshape_2", v, engine.IntValue(2), engine.IntValue(3))
	a, err := core.Wrap(m.B)
	if err != nil || a.Rank() != 2 {
		t.Fatalf("reshape: %v, %v", a, err)
	}
	raw := mustCall(t, db, "FloatArray.Raw", m)
	if len(raw.B) != 48 {
		t.Errorf("raw length = %d", len(raw.B))
	}
	back := mustCall(t, db, "FloatArray.Cast_2", engine.BinaryValue(raw.B), engine.IntValue(2), engine.IntValue(3))
	b, err := core.Wrap(back.B)
	if err != nil || !a.Equal(b) {
		t.Errorf("Cast(Raw) roundtrip failed: %v", err)
	}
	// Reshape with wrong size fails.
	if _, err := callNamed(db, "FloatArray.Reshape_2", []engine.Value{v, engine.IntValue(4), engine.IntValue(2)}); !errors.Is(err, core.ErrShape) {
		t.Errorf("bad reshape: %v", err)
	}
}

// TestToStringEmptyArrayIsBounded: ToString of an array with no elements
// costs O(rank) whatever its leading dimension says. A header-only blob with
// dims [134217728,0,0] used to make this one SELECT emit 402 MB of
// brackets.
func TestToStringEmptyArrayIsBounded(t *testing.T) {
	db := newDB(t)
	a, err := core.New(core.Max, core.Float64, 134217728, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "a", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("empties", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]engine.Value{engine.IntValue(1), engine.BinaryMaxValue(a.Bytes())}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := sqlmini.Run(db, "SELECT FloatArrayMax.ToString(a) FROM empties")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(res.Rows[0][0].B); got != "[[]]" {
		t.Errorf("ToString = %d bytes starting %.20q, want \"[[]]\"", len(got), got)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("ToString of an empty array took %v", d)
	}
	back := mustCall(t, db, "FloatArray.FromString", res.Rows[0][0])
	if b, err := core.Wrap(back.B); err != nil || b.Len() != 0 {
		t.Errorf("FromString(ToString(empty)) = %v, %v", b, err)
	}
}

func TestStringConversion(t *testing.T) {
	db := newDB(t)
	v := mustCall(t, db, "FloatArray.Vector_3",
		engine.FloatValue(1.5), engine.FloatValue(-2), engine.FloatValue(0.25))
	s := mustCall(t, db, "FloatArray.ToString", v)
	if string(s.B) != "[1.5,-2,0.25]" {
		t.Errorf("ToString = %q", s.B)
	}
	back := mustCall(t, db, "FloatArray.FromString", engine.BinaryValue(s.B))
	a, _ := core.Wrap(v.B)
	b, err := core.Wrap(back.B)
	if err != nil || !a.Equal(b) {
		t.Errorf("FromString roundtrip failed: %v", err)
	}
}

func TestAggregatesAndReductions(t *testing.T) {
	db := newDB(t)
	v := query1(t, db, "SELECT FloatArray.Sum(FloatArray.Vector_4(1,2,3,4)) FROM dual")
	if v.F != 10 {
		t.Errorf("Sum = %v", v)
	}
	if v := query1(t, db, "SELECT FloatArray.Avg(FloatArray.Vector_4(1,2,3,4)) FROM dual"); v.F != 2.5 {
		t.Errorf("Avg = %v", v)
	}
	if v := query1(t, db, "SELECT FloatArray.Min(FloatArray.Vector_3(5,-1,2)) FROM dual"); v.F != -1 {
		t.Errorf("Min = %v", v)
	}
	if v := query1(t, db, "SELECT FloatArray.Max(FloatArray.Vector_3(5,-1,2)) FROM dual"); v.F != 5 {
		t.Errorf("Max = %v", v)
	}
	if v := query1(t, db, "SELECT FloatArray.Norm(FloatArray.Vector_2(3,4)) FROM dual"); v.F != 5 {
		t.Errorf("Norm = %v", v)
	}
	// SumDim over a 2x2 matrix: sum over axis 0 gives column sums.
	db2 := newDB(t)
	m := mustCall(t, db2, "FloatArray.Matrix_2",
		engine.FloatValue(1), engine.FloatValue(2), engine.FloatValue(3), engine.FloatValue(4))
	red := mustCall(t, db2, "FloatArray.SumDim", m, engine.IntValue(0))
	a, _ := core.Wrap(red.B)
	if a.FloatAt(0) != 3 || a.FloatAt(1) != 7 {
		t.Errorf("SumDim = %v", a.Float64s())
	}
}

func TestElementwiseTSQL(t *testing.T) {
	db := newDB(t)
	v := query1(t, db,
		"SELECT FloatArray.Dot(FloatArray.Vector_3(1,2,3), FloatArray.Vector_3(4,5,6)) FROM dual")
	if v.F != 32 {
		t.Errorf("Dot = %v", v)
	}
	sum := mustCall(t, db, "FloatArray.Add",
		mustCall(t, db, "FloatArray.Vector_2", engine.FloatValue(1), engine.FloatValue(2)),
		mustCall(t, db, "FloatArray.Vector_2", engine.FloatValue(10), engine.FloatValue(20)))
	a, _ := core.Wrap(sum.B)
	if a.FloatAt(1) != 22 {
		t.Errorf("Add = %v", a.Float64s())
	}
	sc := mustCall(t, db, "FloatArray.Scale",
		mustCall(t, db, "FloatArray.Vector_2", engine.FloatValue(1), engine.FloatValue(2)),
		engine.FloatValue(3))
	b, _ := core.Wrap(sc.B)
	if b.FloatAt(1) != 6 {
		t.Errorf("Scale = %v", b.Float64s())
	}
}

func TestConvertAcrossSchemas(t *testing.T) {
	db := newDB(t)
	iv := mustCall(t, db, "IntArray.Vector_3", engine.IntValue(1), engine.IntValue(2), engine.IntValue(3))
	fv := mustCall(t, db, "FloatArrayMax.Convert", iv)
	a, err := core.Wrap(fv.B)
	if err != nil {
		t.Fatal(err)
	}
	if a.ElemType() != core.Float64 || a.Class() != core.Max {
		t.Errorf("converted to %v %v", a.ElemType(), a.Class())
	}
	if a.FloatAt(2) != 3 {
		t.Errorf("values = %v", a.Float64s())
	}
}

func TestIntegerSchemaItemReturnsInt(t *testing.T) {
	db := newDB(t)
	v := mustCall(t, db, "BigIntArray.Item_1",
		mustCall(t, db, "BigIntArray.Vector_2", engine.IntValue(7), engine.IntValue(9)),
		engine.IntValue(1))
	if v.Kind != engine.ColInt64 || v.I != 9 {
		t.Errorf("int item = %v", v)
	}
}

func TestFFTForwardInverseTSQL(t *testing.T) {
	// The paper's §5.3 example: SET @ft = FloatArrayMax.FFTForward(@a).
	db := newDB(t)
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a, err := core.FromFloat64s(core.Max, core.Float64, data, len(data))
	if err != nil {
		t.Fatal(err)
	}
	ft := mustCall(t, db, "FloatArrayMax.FFTForward", engine.BinaryMaxValue(a.Bytes()))
	spec, err := core.Wrap(ft.B)
	if err != nil {
		t.Fatal(err)
	}
	if spec.ElemType() != core.Complex128 {
		t.Fatalf("spectrum type = %v", spec.ElemType())
	}
	// DC bin = sum of inputs.
	if got := spec.ComplexAt(0); math.Abs(real(got)-36) > 1e-9 || math.Abs(imag(got)) > 1e-9 {
		t.Errorf("DC bin = %v", got)
	}
	// Inverse returns the original (as complex with zero imag).
	back := mustCall(t, db, "DoubleComplexArrayMax.FFTInverse", ft)
	ba, _ := core.Wrap(back.B)
	for i, want := range data {
		got := ba.ComplexAt(i)
		if math.Abs(real(got)-want) > 1e-9 || math.Abs(imag(got)) > 1e-9 {
			t.Errorf("element %d = %v, want %g", i, got, want)
		}
	}
}

func TestSVDValuesTSQL(t *testing.T) {
	db := newDB(t)
	// diag(3,2) as a 2x2 max array.
	m, _ := core.FromFloat64s(core.Max, core.Float64, []float64{3, 0, 0, 2}, 2, 2)
	sv := mustCall(t, db, "FloatArrayMax.SVDValues", engine.BinaryMaxValue(m.Bytes()))
	a, _ := core.Wrap(sv.B)
	if math.Abs(a.FloatAt(0)-3) > 1e-10 || math.Abs(a.FloatAt(1)-2) > 1e-10 {
		t.Errorf("singular values = %v", a.Float64s())
	}
	// Rank check: vector input fails.
	v, _ := core.FromFloat64s(core.Max, core.Float64, []float64{1, 2}, 2)
	if _, err := callNamed(db, "FloatArrayMax.SVDValues", []engine.Value{engine.BinaryMaxValue(v.Bytes())}); !errors.Is(err, core.ErrRank) {
		t.Errorf("rank check: %v", err)
	}
}

func TestSolveAndMatMulTSQL(t *testing.T) {
	db := newDB(t)
	// A = [[2,0],[0,4]], b = (2, 8) -> x = (1, 2).
	a, _ := core.FromFloat64s(core.Max, core.Float64, []float64{2, 0, 0, 4}, 2, 2)
	b, _ := core.FromFloat64s(core.Max, core.Float64, []float64{2, 8}, 2)
	x := mustCall(t, db, "FloatArrayMax.Solve", engine.BinaryMaxValue(a.Bytes()), engine.BinaryMaxValue(b.Bytes()))
	xa, _ := core.Wrap(x.B)
	if math.Abs(xa.FloatAt(0)-1) > 1e-10 || math.Abs(xa.FloatAt(1)-2) > 1e-10 {
		t.Errorf("Solve = %v", xa.Float64s())
	}
	c := mustCall(t, db, "FloatArrayMax.MatMul", engine.BinaryMaxValue(a.Bytes()), engine.BinaryMaxValue(a.Bytes()))
	ca, _ := core.Wrap(c.B)
	if ca.FloatAt(0) != 4 || ca.FloatAt(3) != 16 {
		t.Errorf("MatMul = %v", ca.Float64s())
	}
	nn := mustCall(t, db, "FloatArrayMax.NNLS", engine.BinaryMaxValue(a.Bytes()), engine.BinaryMaxValue(b.Bytes()))
	na, _ := core.Wrap(nn.B)
	if math.Abs(na.FloatAt(0)-1) > 1e-8 || math.Abs(na.FloatAt(1)-2) > 1e-8 {
		t.Errorf("NNLS = %v", na.Float64s())
	}
}

func TestFromQueryReplacesConcatUDA(t *testing.T) {
	// §4.2/§5.1: assemble an array from a table of (index-vector, value)
	// rows via a query-driven function.
	db := newDB(t)
	s, _ := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "ix", Type: engine.ColVarBinary},
		engine.Column{Name: "v", Type: engine.ColFloat64},
	)
	tbl, err := db.CreateTable("cells", s)
	if err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			ix := core.IntVector(i, j)
			if err := tbl.Insert([]engine.Value{
				engine.IntValue(id), engine.BinaryValue(ix.Bytes()), engine.FloatValue(float64(10*i + j)),
			}); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	dims := core.IntVector(3, 4)
	out := mustCall(t, db, "FloatArrayMax.FromQuery",
		engine.BinaryValue(dims.Bytes()),
		engine.BinaryValue([]byte("SELECT ix, v FROM cells")))
	a, err := core.Wrap(out.B)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rank() != 2 || a.Dim(0) != 3 || a.Dim(1) != 4 {
		t.Fatalf("dims = %v", a.Dims())
	}
	v, _ := a.Item(2, 3)
	if v != 23 {
		t.Errorf("Item(2,3) = %g", v)
	}
	// VectorFromQuery over plain integer indexes.
	s2, _ := engine.NewSchema(
		engine.Column{Name: "i", Type: engine.ColInt64},
		engine.Column{Name: "val", Type: engine.ColFloat64},
	)
	t2, _ := db.CreateTable("vcells", s2)
	for i := int64(0); i < 5; i++ {
		if err := t2.Insert([]engine.Value{engine.IntValue(i), engine.FloatValue(float64(i * i))}); err != nil {
			t.Fatal(err)
		}
	}
	vec := mustCall(t, db, "FloatArrayMax.VectorFromQuery",
		engine.IntValue(5), engine.BinaryValue([]byte("SELECT i, val FROM vcells")))
	va, _ := core.Wrap(vec.B)
	if va.FloatAt(4) != 16 {
		t.Errorf("vector = %v", va.Float64s())
	}
	// Bad inner query surfaces the error.
	if _, err := callNamed(db, "FloatArrayMax.VectorFromQuery", []engine.Value{
		engine.IntValue(5), engine.BinaryValue([]byte("SELECT nope FROM vcells")),
	}); err == nil {
		t.Error("bad inner query must fail")
	}
}

func TestSchemasEnumeration(t *testing.T) {
	ss := allSchemas()
	if len(ss) != 16 {
		t.Fatalf("schemas = %d, want 16 (8 types x 2 classes)", len(ss))
	}
	found := map[string]bool{}
	for _, s := range ss {
		found[s.name] = true
	}
	for _, want := range []string{"FloatArray", "FloatArrayMax", "IntArray", "IntArrayMax", "DoubleComplexArrayMax"} {
		if !found[want] {
			t.Errorf("schema %s missing", want)
		}
	}
}

func TestRegisteredFunctionCount(t *testing.T) {
	db := newDB(t)
	n := len(db.Funcs().Names())
	// 16 schemas x (16 vector + 3 matrix + 6 item + 6 update + 1 subarray
	// + 6 reshape + 6 cast + raw/length/rank/dim/tostring/fromstring(6)
	// + 6 aggregates + 4 reductions + 4 binops + scale/dot/abs(3) + convert)
	// = 16 x 62 = 992, plus math (8) and query funcs (16).
	if n < 900 {
		t.Errorf("only %d functions registered", n)
	}
}

// TestItemReadsInPlace: Item_N validates the blob and reads the element
// where it lies — the hosted function allocates nothing — and still
// reports every §3.5 mismatch and index error arrayArg + Array.Item did.
func TestItemReadsInPlace(t *testing.T) {
	db := newDB(t)
	vec := mustCall(t, db, "FloatArray.Vector_3", engine.FloatValue(1.5), engine.FloatValue(2.5), engine.FloatValue(3.5))
	ints := mustCall(t, db, "IntArray.Vector_2", engine.IntValue(7), engine.IntValue(9))
	cube, err := core.New(core.Max, core.Float64, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cube.SetFloatAt(1+2*2+3*6, 42)

	if v := mustCall(t, db, "FloatArray.Item_1", vec, engine.IntValue(2)); v.Kind != engine.ColFloat64 || v.F != 3.5 {
		t.Errorf("FloatArray.Item_1 = %v", v)
	}
	if v := mustCall(t, db, "IntArray.Item_1", ints, engine.IntValue(1)); v.Kind != engine.ColInt64 || v.I != 9 {
		t.Errorf("IntArray.Item_1 = %v", v)
	}
	if v := mustCall(t, db, "FloatArrayMax.Item_3", engine.BinaryMaxValue(cube.Bytes()),
		engine.IntValue(1), engine.IntValue(2), engine.IntValue(3)); v.F != 42 {
		t.Errorf("FloatArrayMax.Item_3 = %v", v)
	}
	for _, c := range []struct {
		fn   string
		args []engine.Value
		want error
	}{
		{"FloatArray.Item_1", []engine.Value{ints, engine.IntValue(0)}, core.ErrTypeMismatch},
		{"FloatArrayMax.Item_1", []engine.Value{vec, engine.IntValue(0)}, core.ErrClassMismatch},
		{"FloatArray.Item_1", []engine.Value{engine.BinaryValue([]byte{1, 2, 3}), engine.IntValue(0)}, core.ErrBadHeader},
		{"FloatArray.Item_1", []engine.Value{engine.BinaryValue(vec.B[:30]), engine.IntValue(0)}, core.ErrTruncated},
		{"FloatArray.Item_1", []engine.Value{vec, engine.IntValue(3)}, core.ErrBounds},
		{"FloatArray.Item_1", []engine.Value{vec, engine.IntValue(-1)}, core.ErrBounds},
		{"FloatArray.Item_2", []engine.Value{vec, engine.IntValue(0), engine.IntValue(0)}, core.ErrRank},
		{"FloatArray.Item_1", []engine.Value{engine.Null, engine.IntValue(0)}, engine.ErrNullValue},
		{"FloatArray.Item_1", []engine.Value{vec, engine.Null}, engine.ErrNullValue},
		// The type flag is checked before the index, as before.
		{"FloatArray.Item_1", []engine.Value{ints, engine.IntValue(99)}, core.ErrTypeMismatch},
	} {
		if _, err := callNamed(db, c.fn, c.args); !errors.Is(err, c.want) {
			t.Errorf("%s(%v): %v, want %v", c.fn, c.args, err, c.want)
		}
	}

	def, err := db.Funcs().Lookup("FloatArray.Item_1")
	if err != nil {
		t.Fatal(err)
	}
	args := []engine.Value{vec, engine.IntValue(1)}
	allocs := testing.AllocsPerRun(100, func() {
		if v, err := def.Fn(args); err != nil || v.F != 2.5 {
			t.Fatalf("Item_1 = %v, %v", v, err)
		}
	})
	if allocs != 0 {
		t.Errorf("FloatArray.Item_1 allocates %.0f times per call", allocs)
	}
}

// TestSubarrayResultTakesSchemaClass: a max schema's Subarray returns a
// max array whatever its size, as the paper's varbinary(max)-returning
// functions do, both over a MAX column (read through its blob ref) and
// over a payload (the row-wise call), and the two agree byte for byte.
func TestSubarrayResultTakesSchemaClass(t *testing.T) {
	db := newDB(t)
	a, err := core.New(core.Max, core.Float64, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		a.SetFloatAt(i, float64(i))
	}
	s, _ := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "n", Type: engine.ColInt64},
		engine.Column{Name: "a", Type: engine.ColVarBinaryMax},
	)
	tbl, err := db.CreateTable("cuts", s)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{5, 2000, 900, 1001, 3} // 1001 float64s no longer fit VARBINARY(8000)
	for id, n := range sizes {
		if err := tbl.Insert([]engine.Value{engine.IntValue(int64(id)), engine.IntValue(n), engine.BinaryMaxValue(a.Bytes())}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sqlmini.Run(db,
		"SELECT FloatArrayMax.Subarray(a, IntArray.Vector_1(0), IntArray.Vector_1(n), 0) FROM cuts")
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range sizes {
		want := mustCall(t, db, "FloatArrayMax.Subarray", engine.BinaryMaxValue(a.Bytes()),
			mustCall(t, db, "IntArray.Vector_1", engine.IntValue(0)),
			mustCall(t, db, "IntArray.Vector_1", engine.IntValue(n)), engine.IntValue(0))
		got := res.Rows[id][0]
		if got.Kind != engine.ColVarBinaryMax || want.Kind != engine.ColVarBinaryMax || !bytes.Equal(got.B, want.B) {
			t.Errorf("row %d (n = %d): kind %v, row-wise %v, want VARBINARY(MAX) both, equal bytes", id, n, got.Kind, want.Kind)
			continue
		}
		sub, err := core.Wrap(got.B)
		if err != nil || sub.Class() != core.Max || sub.Len() != int(n) || sub.FloatAt(int(n)-1) != float64(n-1) {
			t.Errorf("row %d (n = %d): result %v, %v", id, n, sub, err)
		}
	}
}

// TestMaxSchemaResultsPassTheirOwnCheck is the class bug's repro: a
// small result of a max schema's array function used to come back as a
// short array, which the same schema's next function then rejected.
func TestMaxSchemaResultsPassTheirOwnCheck(t *testing.T) {
	db := newDB(t)
	a, err := core.New(core.Max, core.Float64, 30, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		a.SetFloatAt(i, 1)
	}
	s, _ := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "a", Type: engine.ColVarBinaryMax},
	)
	tbl, err := db.CreateTable("m", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]engine.Value{engine.IntValue(1), engine.BinaryMaxValue(a.Bytes())}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql  string
		want float64
	}{
		{"SELECT FloatArrayMax.Sum(FloatArrayMax.Subarray(a, IntArray.Vector_2(0,0), IntArray.Vector_2(3,10), 0)) FROM m", 30},
		{"SELECT FloatArrayMax.Sum(FloatArrayMax.Subarray(a, IntArray.Vector_2(0,0), IntArray.Vector_2(30,100), 0)) FROM m", 3000},
		{"SELECT FloatArrayMax.Length(FloatArrayMax.SumDim(a, 0)) FROM m", 100},
		{"SELECT FloatArrayMax.Sum(FloatArrayMax.Add(FloatArrayMax.Subarray(a, IntArray.Vector_2(0,0), IntArray.Vector_2(2,2), 0), FloatArrayMax.Matrix_2(1,2,3,4))) FROM m", 14},
		{"SELECT FloatArrayMax.Sum(FloatArrayMax.Abs(FloatArrayMax.Scale(FloatArrayMax.MaxDim(a, 1), -2))) FROM m", 60},
	} {
		res, err := sqlmini.Run(db, c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		v, err := res.Scalar()
		if err == nil {
			var f float64
			if f, err = v.AsFloat(); err == nil && f != c.want {
				err = fmt.Errorf("got %g", f)
			}
		}
		if err != nil {
			t.Errorf("%s: %v; want %g", c.sql, err, c.want)
		}
	}
	// Short schemas keep short results.
	if v := query1(t, db, "SELECT FloatArray.Rank(FloatArray.SumDim(FloatArray.Matrix_2(1,2,3,4), 0)) FROM dual"); v.I != 1 {
		t.Errorf("FloatArray.SumDim result rank = %v", v)
	}
}
