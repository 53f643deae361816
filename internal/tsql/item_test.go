package tsql

import (
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// maxItemRow stores one 2000-element FLOAT MAX array — a spectrum's flux
// column in the spectra store — as row 1 of a fresh table and returns
// FloatArrayMax.Item_1 with the arguments of one call on that row as the
// executor passes them (the row's blob ref and a constant index), and a
// snapshot to read the ref through, released when tb ends.
func maxItemRow(tb testing.TB, k int64) (*engine.DB, *engine.FuncDef, []*engine.Vector, *engine.Snapshot) {
	tb.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	RegisterAll(db)
	s, err := engine.NewSchema(engine.Column{Name: "id", Type: engine.ColInt64}, engine.Column{Name: "flux", Type: engine.ColVarBinaryMax})
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := db.CreateTable("spectra", s)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := core.New(core.Max, core.Float64, 2000)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		a.SetFloatAt(i, float64(i)/4)
	}
	if err := tbl.Insert([]engine.Value{engine.IntValue(1), engine.BinaryMaxValue(a.Bytes())}); err != nil {
		tb.Fatal(err)
	}
	row, err := tbl.Get(1)
	if err != nil {
		tb.Fatal(err)
	}
	def, err := db.Funcs().Lookup("FloatArrayMax.Item_1")
	if err != nil {
		tb.Fatal(err)
	}
	var refs, idx engine.Vector
	refs.Reset(engine.ColMaxRef, 1)
	refs.B[0] = row[1].B
	idx.SetConst(engine.IntValue(k))
	snap := db.Snapshot()
	tb.Cleanup(snap.Release)
	return db, def, []*engine.Vector{&refs, &idx}, snap
}

// BenchmarkItem times one Item_1 call in the two shapes the benchmark
// workloads run it in: short, the hosted body of Table 1's query 4 over a
// 64-byte 5-vector (no boundary); max, one FloatArrayMax.Item_1 crossing
// over a resident 2000-element MAX row's blob ref, as spectra_hot's SQL
// point query makes it (the boundary, the blob directory, the header's
// chunk and the element's).
func BenchmarkItem(b *testing.B) {
	b.Run("short", func(b *testing.B) {
		db, err := engine.Open(engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		RegisterAll(db)
		def, err := db.Funcs().Lookup("FloatArray.Item_1")
		if err != nil {
			b.Fatal(err)
		}
		args := []engine.Value{engine.BinaryValue(core.Vector(1, 2, 3, 4, 5).Bytes()), engine.IntValue(0)}
		b.ReportAllocs()
		b.ResetTimer()
		s := 0.0
		for i := 0; i < b.N; i++ {
			v, err := def.Fn(args)
			if err != nil {
				b.Fatal(err)
			}
			s += v.F
		}
		if s != float64(b.N) {
			b.Fatalf("sum %v over %d calls", s, b.N)
		}
	})
	b.Run("max", func(b *testing.B) {
		db, def, args, snap := maxItemRow(b, 1500)
		var out engine.Vector
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Funcs().CallBatch(snap, def, args, 1, &out); err != nil {
				b.Fatal(err)
			}
		}
		if out.F[0] != 375 {
			b.Fatalf("Item_1 = %v, want 375", out.F[0])
		}
	})
}
