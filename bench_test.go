package sqlarray

// Micro-benchmarks of single functions no bench/ workload isolates —
// the UDA protocol, the storage-class item path, array marshaling into
// the FFT/LAPACK layers, FOF and CIC. The paper's experiments (Table 1,
// the UDF boundary, stencil fetches, spectra, ingest) are bench/'s
// workloads and per-layer metrics. Run with
//
//	go test -bench=. -benchmem
//
// E7   BenchmarkConcatUDAvsDirect      — UDA assembly vs direct construction
//      (TestUDAvsDirectAggregate checks the driver, runAggregate)
// E8   BenchmarkStorageClass*, BenchmarkSubarray8Cube
// E9   BenchmarkFFT*, BenchmarkSVD*    — math-library amortization
// E12  BenchmarkNBodyFOF, BenchmarkNBodyCICPowerSpectrum

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/fft"
	"sqlarray/internal/lapack"
	"sqlarray/internal/nbody"
)

// ---- E7: aggregate assembly, UDA protocol vs direct ----------------------

func BenchmarkConcatUDAvsDirect(b *testing.B) {
	db := memDatabase(b)
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
	)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.CreateTable("agg", s)
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 20_000; i++ {
		if err := tbl.Insert([]engine.Value{engine.IntValue(i), engine.FloatValue(float64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	agg := &benchSumAgg{}
	b.Run("UDAProtocol", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := runAggregate(db.DB, tbl, 1, agg, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DirectFunction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := runAggregate(db.DB, tbl, 1, agg, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// aggregate is a user-defined aggregate in the SQLCLR mould:
// Init/Accumulate/Terminate plus state (de)serialization.
type aggregate interface {
	Init()
	Accumulate(v engine.Value) error
	Terminate() (engine.Value, error)
	// Serialize appends the state to dst (the per-row stream write).
	Serialize(dst []byte) []byte
	// Deserialize replaces the state from its serialized form.
	Deserialize(src []byte) error
}

// aggStats reports the rows an aggregate run folded and the state bytes
// it moved through serialization.
type aggStats struct{ rows, stateBytesMoved uint64 }

// runAggregate folds column col of every row of tbl into agg, reading
// the rows in batches off a cursor. With uda set it follows the SQL
// Server UDA protocol the paper found prohibitive (§4.2): "the state of
// aggregation had to be serialized via a binary stream interface for
// each row processed by the aggregation", so the state is deserialized
// before and serialized after every row. Without it agg keeps its state
// in memory, the paper's workaround: a plain function that drives the
// scan itself.
func runAggregate(db *engine.DB, tbl *engine.Table, col int, agg aggregate, uda bool) (engine.Value, aggStats, error) {
	snap := db.Snapshot()
	defer snap.Release()
	cur, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
	if err != nil {
		return engine.Null, aggStats{}, err
	}
	defer cur.Close()
	keys := make([]int64, 256)
	cols := make([]*engine.Vector, col+1)
	cols[col] = new(engine.Vector)
	var st aggStats
	agg.Init()
	state := agg.Serialize(nil)
	for {
		n, err := cur.FillBatch(keys, cols, nil)
		if err != nil {
			return engine.Null, st, err
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if uda {
				// The engine hands the stored state back to the CLR object...
				if err := agg.Deserialize(state); err != nil {
					return engine.Null, st, err
				}
			}
			if err := agg.Accumulate(cols[col].Value(i)); err != nil {
				return engine.Null, st, err
			}
			if uda {
				// ...and persists it again after the row.
				state = agg.Serialize(state[:0])
				st.stateBytesMoved += 2 * uint64(len(state))
			}
			st.rows++
		}
	}
	if uda {
		if err := agg.Deserialize(state); err != nil {
			return engine.Null, st, err
		}
	}
	out, err := agg.Terminate()
	return out, st, err
}

// benchSumAgg is a minimal serializable SUM aggregate.
type benchSumAgg struct{ sum float64 }

func (a *benchSumAgg) Init() { a.sum = 0 }
func (a *benchSumAgg) Accumulate(v engine.Value) error {
	f, err := v.AsFloat()
	if err != nil {
		return err
	}
	a.sum += f
	return nil
}
func (a *benchSumAgg) Terminate() (engine.Value, error) { return engine.FloatValue(a.sum), nil }
func (a *benchSumAgg) Serialize(dst []byte) []byte {
	var b [8]byte
	core.Vector(a.sum) // realistic state-serialization work
	return append(append(dst, b[:]...), 0)
}
func (a *benchSumAgg) Deserialize(src []byte) error { return nil }

// sumAgg is a float SUM aggregate whose state (sum, count) really
// round-trips through its 16-byte serialized form.
type sumAgg struct {
	sum float64
	n   int64
}

func (a *sumAgg) Init() { a.sum, a.n = 0, 0 }
func (a *sumAgg) Accumulate(v engine.Value) error {
	f, err := v.AsFloat()
	if err != nil {
		return err
	}
	a.sum += f
	a.n++
	return nil
}
func (a *sumAgg) Terminate() (engine.Value, error) { return engine.FloatValue(a.sum), nil }
func (a *sumAgg) Serialize(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.sum))
	return binary.LittleEndian.AppendUint64(dst, uint64(a.n))
}
func (a *sumAgg) Deserialize(src []byte) error {
	if len(src) < 16 {
		return errors.New("short state")
	}
	a.sum = math.Float64frombits(binary.LittleEndian.Uint64(src))
	a.n = int64(binary.LittleEndian.Uint64(src[8:]))
	return nil
}

func TestUDAvsDirectAggregate(t *testing.T) {
	db := memDatabase(t)
	s, _ := engine.NewSchema(engine.Column{Name: "id", Type: engine.ColInt64}, engine.Column{Name: "x", Type: engine.ColFloat64})
	tbl, _ := db.CreateTable("t", s)
	want := 0.0
	for i := int64(0); i < 500; i++ {
		x := float64(i) * 1.5
		want += x
		if err := tbl.Insert([]engine.Value{engine.IntValue(i), engine.FloatValue(x)}); err != nil {
			t.Fatal(err)
		}
	}
	var agg sumAgg
	out, st, err := runAggregate(db.DB, tbl, 1, &agg, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.F != want {
		t.Errorf("UDA sum = %g, want %g", out.F, want)
	}
	if st.rows != 500 || st.stateBytesMoved != 500*32 {
		t.Errorf("UDA stats = %+v (state must round-trip per row)", st)
	}
	out2, st2, err := runAggregate(db.DB, tbl, 1, &agg, false)
	if err != nil {
		t.Fatal(err)
	}
	if out2.F != want {
		t.Errorf("direct sum = %g", out2.F)
	}
	if st2.stateBytesMoved != 0 {
		t.Errorf("direct run must not serialize state: %+v", st2)
	}
}

// ---- E8: storage classes and partial reads ------------------------------

func BenchmarkStorageClassShortItem(b *testing.B) {
	a, err := core.New(core.Short, core.Float64, 31, 31) // page-sized
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Item(i%31, (i/31)%31); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorageClassMaxItem(b *testing.B) {
	a, err := core.New(core.Max, core.Float64, 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Item(i%512, (i/512)%512); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSubarray(b *testing.B, collapse bool) {
	a, err := core.New(core.Max, core.Float64, 128, 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	off := []int{10, 20, 30}
	size := []int{8, 8, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Subarray(off, size, collapse); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubarray8Cube(b *testing.B) { benchSubarray(b, false) }

// ---- E9: math library amortization --------------------------------------

func BenchmarkFFTViaArray(b *testing.B) {
	data := make([]float64, 4096)
	for i := range data {
		data[i] = float64(i % 17)
	}
	a, err := core.FromFloat64s(core.Max, core.Float64, data, len(data))
	if err != nil {
		b.Fatal(err)
	}
	db := memDatabase(b)
	def, err := db.Funcs().Lookup("floatarraymax.fftforward")
	if err != nil {
		b.Fatal(err)
	}
	args := []engine.Value{engine.BinaryMaxValue(a.Bytes())}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Funcs().Call(def, args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFTRawSlice(b *testing.B) {
	data := make([]complex128, 4096)
	for i := range data {
		data[i] = complex(float64(i%17), 0)
	}
	plan, err := fft.NewPlan(len(data), fft.Forward)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]complex128, len(data))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Execute(dst, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVDViaArray(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 48
	data := make([]float64, n*n)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	a, err := core.FromFloat64s(core.Max, core.Float64, data, n, n)
	if err != nil {
		b.Fatal(err)
	}
	db := memDatabase(b)
	def, err := db.Funcs().Lookup("floatarraymax.svdvalues")
	if err != nil {
		b.Fatal(err)
	}
	args := []engine.Value{engine.BinaryMaxValue(a.Bytes())}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Funcs().Call(def, args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVDRawMatrix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 48
	m := lapack.NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lapack.SVD(m); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E12: N-body ----------------------------------------------------------

func BenchmarkNBodyFOF(b *testing.B) {
	snap, err := nbody.GenerateSnapshot(nbody.GenParams{
		N: 20_000, NHalos: 6, HaloFrac: 0.5, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nbody.FOF(snap.Particles, 0.01, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNBodyCICPowerSpectrum(b *testing.B) {
	snap, err := nbody.GenerateSnapshot(nbody.GenParams{
		N: 20_000, NHalos: 6, HaloFrac: 0.5, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nbody.PowerSpectrum(snap.Particles, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Design-choice ablation: column-major marshaling ----------------------

// BenchmarkMajorOrder shows what the column-major storage decision buys:
// handing a stored matrix to the LAPACK-style layer is a straight copy,
// while a row-major store would transpose.
func BenchmarkMajorOrder(b *testing.B) {
	const n = 256
	data := make([]float64, n*n)
	for i := range data {
		data[i] = float64(i)
	}
	b.Run("ColumnMajorCopy", func(b *testing.B) {
		dst := make([]float64, n*n)
		for i := 0; i < b.N; i++ {
			copy(dst, data)
		}
	})
	b.Run("RowMajorTranspose", func(b *testing.B) {
		dst := make([]float64, n*n)
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					dst[c*n+r] = data[r*n+c]
				}
			}
		}
	})
}
