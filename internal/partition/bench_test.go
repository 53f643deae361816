package partition

import (
	"math"
	"testing"

	"sqlarray/internal/engine"
	"sqlarray/internal/sfc"
)

// benchGridRows builds one row per cell of a side³ grid keyed by Morton
// code (see gridRows; this variant is sized for benchmarks).
func benchGridRows(tb testing.TB, side uint32) [][]engine.Value {
	tb.Helper()
	rows := make([][]engine.Value, 0, int(side)*int(side)*int(side))
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			for z := uint32(0); z < side; z++ {
				code, err := sfc.Encode3D(x, y, z)
				if err != nil {
					tb.Fatal(err)
				}
				rows = append(rows, []engine.Value{
					engine.IntValue(int64(code)),
					engine.FloatValue(float64(x+y+z) / 3),
				})
			}
		}
	}
	return rows
}

func benchSchema(tb testing.TB) engine.Schema {
	tb.Helper()
	s, err := engine.NewSchema(
		engine.Column{Name: "zindex", Type: engine.ColInt64},
		engine.Column{Name: "density", Type: engine.ColFloat64},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkPartitionedScanSpeedup answers a box query over a Morton-
// keyed side³ grid two ways: a full scan of the unpartitioned table
// with a decode filter, and the partitioned store's Box path — Morton
// range decomposition, partition pruning, clipped range scans. The box
// is one octant, so the Box path touches 1 of 8 members.
func BenchmarkPartitionedScanSpeedup(b *testing.B) {
	const side = 32
	rows := benchGridRows(b, side)
	lo, hi := [3]uint32{0, 0, 0}, [3]uint32{side/2 - 1, side/2 - 1, side/2 - 1}

	b.Run("full-scan", func(b *testing.B) {
		db := memDB(b)
		tbl, err := db.CreateTable("cube", benchSchema(b))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tbl.BulkLoad(engine.NewValuesSource(rows), engine.BulkOptions{}); err != nil {
			b.Fatal(err)
		}
		r0 := db.Pool().Stats().LogicalReads
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap := db.Snapshot()
			cur, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
			if err != nil {
				b.Fatal(err)
			}
			found := 0
			for cur.Next() {
				x, y, z := sfc.Decode3D(uint64(cur.Key()))
				if x >= lo[0] && x <= hi[0] && y >= lo[1] && y <= hi[1] && z >= lo[2] && z <= hi[2] {
					found++
				}
			}
			cur.Close()
			snap.Release()
			if found != len(rows)/8 {
				b.Fatalf("found %d, want %d", found, len(rows)/8)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(db.Pool().Stats().LogicalReads-r0)/float64(b.N), "pages/op")
	})

	b.Run("box-partitioned", func(b *testing.B) {
		spec, err := MortonSpec8(side)
		if err != nil {
			b.Fatal(err)
		}
		dbs := make([]*engine.DB, spec.Parts())
		for i := range dbs {
			dbs[i] = memDB(b)
		}
		st, err := New(spec, dbs)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.CreateTable("cube", benchSchema(b)); err != nil {
			b.Fatal(err)
		}
		if _, err := st.BulkLoad("cube", engine.NewValuesSource(rows), engine.BulkOptions{}); err != nil {
			b.Fatal(err)
		}
		poolReads := func() uint64 {
			var n uint64
			for i := 0; i < spec.Parts(); i++ {
				n += st.Member(i).Pool().Stats().LogicalReads
			}
			return n
		}
		r0 := poolReads()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keys, _, err := st.Box("cube", lo, hi, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(keys) != len(rows)/8 {
				b.Fatalf("box found %d, want %d", len(keys), len(rows)/8)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(poolReads()-r0)/float64(b.N), "pages/op")
	})
}
