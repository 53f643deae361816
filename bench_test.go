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
// E8   BenchmarkStorageClass*, BenchmarkSubarray8Cube
// E9   BenchmarkFFT*, BenchmarkSVD*    — math-library amortization
// E12  BenchmarkNBodyFOF, BenchmarkNBodyCICPowerSpectrum

import (
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
			if _, _, err := engine.RunAggregateUDA(tbl, 1, agg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DirectFunction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.RunAggregateDirect(tbl, 1, agg); err != nil {
				b.Fatal(err)
			}
		}
	})
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
