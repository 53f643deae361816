package spectra

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
)

// memDB opens an in-memory database without a log.
func memDB(t testing.TB) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Options{})
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

func synth(t *testing.T, rng *rand.Rand, id int64, z, badFrac float64) *Spectrum {
	t.Helper()
	s, err := Synthesize(rng, SynthesisParams{
		Bins: 200, LoWave: 3800, HiWave: 7000, Z: z, SNR: 30,
		BadFrac: badFrac, LineSeed: id,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ID = id
	return s
}

func TestLogGrid(t *testing.T) {
	g, err := LogGrid(4000, 8000, 101)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 4000 || math.Abs(g[100]-8000) > 1e-9 {
		t.Errorf("ends = %g, %g", g[0], g[100])
	}
	// Constant ratio between neighbours.
	r := g[1] / g[0]
	for i := 2; i < len(g); i++ {
		if math.Abs(g[i]/g[i-1]-r) > 1e-12 {
			t.Fatal("grid not logarithmic")
		}
	}
	if _, err := LogGrid(0, 100, 10); err == nil {
		t.Error("zero lower bound must fail")
	}
	if _, err := LogGrid(100, 50, 10); err == nil {
		t.Error("inverted range must fail")
	}
	if _, err := LogGrid(1, 2, 1); err == nil {
		t.Error("single bin must fail")
	}
}

func TestSynthesizeAndValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := synth(t, rng, 1, 0.1, 0.02)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, f := range s.Flags {
		if f != 0 {
			bad++
		}
	}
	if bad == 0 {
		t.Error("expected some flagged pixels at BadFrac=0.02")
	}
	// Wavelengths redshifted: first bin at 3800*(1.1).
	if math.Abs(s.Wave[0]-3800*1.1) > 1e-9 {
		t.Errorf("start = %g", s.Wave[0])
	}
	// Broken inputs.
	if err := (&Spectrum{Wave: []float64{1}}).Validate(); err == nil {
		t.Error("single bin must fail")
	}
	bad2 := synth(t, rng, 2, 0, 0)
	bad2.Wave[5] = bad2.Wave[4]
	if err := bad2.Validate(); err == nil {
		t.Error("non-ascending grid must fail")
	}
}

// TestGridRejectsNonFiniteWavelengths: a NaN compares false against
// everything, so an ascending check written as w[i] <= w[i-1] passes it,
// and ±Inf bins make infinite bin edges. Each grid must be refused with
// errGrid as a spectrum (Validate, Store.Insert) and as a Resample target.
func TestGridRejectsNonFiniteWavelengths(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	st, err := CreateStore(memDB(t), "spectra")
	if err != nil {
		t.Fatal(err)
	}
	good := []float64{0.5, 1.5, 2.5, 3.5}
	for i, wave := range [][]float64{
		{1, nan, 3},
		{nan, 1, 2},
		{1, 2, nan},
		{1, 2, inf},
		{-inf, 1, 2},
		{1, inf, inf},
	} {
		n := len(wave)
		s := &Spectrum{ID: int64(i), Wave: wave, Flux: []float64{1, 1, 1},
			Err: make([]float64, n), Flags: make([]int64, n)}
		if err := s.Validate(); !errors.Is(err, errGrid) {
			t.Errorf("Validate(%v) = %v, want errGrid", wave, err)
		}
		if _, err := Resample(s, good); !errors.Is(err, errGrid) {
			t.Errorf("Resample from %v = %v, want errGrid", wave, err)
		}
		if err := st.Insert(s); !errors.Is(err, errGrid) {
			t.Errorf("Insert(%v) = %v, want errGrid", wave, err)
		}
		src := &Spectrum{Wave: good, Flux: []float64{1, 1, 1, 1},
			Err: make([]float64, 4), Flags: make([]int64, 4)}
		if _, err := Resample(src, wave); !errors.Is(err, errGrid) {
			t.Errorf("Resample onto %v = %v, want errGrid", wave, err)
		}
	}
	if got := st.Table().Rows(); got != 0 {
		t.Errorf("%d spectra with non-finite grids persisted", got)
	}
}

func TestIntegrateLinearFlux(t *testing.T) {
	// Constant flux density 2 over [0,10]: integral over [2,5] = 6.
	s := &Spectrum{
		Wave:  []float64{0, 2.5, 5, 7.5, 10},
		Flux:  []float64{2, 2, 2, 2, 2},
		Err:   make([]float64, 5),
		Flags: make([]int64, 5),
	}
	if got := s.Integrate(2, 5); math.Abs(got-6) > 1e-12 {
		t.Errorf("Integrate = %g, want 6", got)
	}
	// Outside the domain: zero.
	if got := s.Integrate(20, 30); got != 0 {
		t.Errorf("outside = %g", got)
	}
}

func TestNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := synth(t, rng, 3, 0.05, 0)
	lo, hi := s.Wave[20], s.Wave[150]
	if err := s.Normalize(lo, hi); err != nil {
		t.Fatal(err)
	}
	if got := s.Integrate(lo, hi); math.Abs(got-1) > 1e-9 {
		t.Errorf("normalized integral = %g", got)
	}
	zero := &Spectrum{Wave: []float64{1, 2}, Flux: []float64{0, 0}, Err: []float64{1, 1}, Flags: []int64{0, 0}}
	if err := zero.Normalize(1, 2); err == nil {
		t.Error("zero flux must fail")
	}
}

func TestResampleConservesFlux(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := synth(t, rng, 4, 0.08, 0)
	// Resample to a coarser grid fully inside the source coverage.
	grid, _ := LogGrid(s.Wave[10], s.Wave[180], 60)
	r, err := Resample(s, grid)
	if err != nil {
		t.Fatal(err)
	}
	// Integrated flux over a wide interior range must be conserved.
	lo, hi := grid[5], grid[54]
	a := s.Integrate(lo, hi)
	b := r.Integrate(lo, hi)
	if math.Abs(a-b) > 0.02*math.Abs(a) {
		t.Errorf("flux not conserved: %g vs %g", a, b)
	}
}

func TestResampleFlagPropagation(t *testing.T) {
	s := &Spectrum{
		Wave:  []float64{1, 2, 3, 4, 5, 6, 7, 8},
		Flux:  []float64{1, 1, 1, 1, 1, 1, 1, 1},
		Err:   []float64{.1, .1, .1, .1, .1, .1, .1, .1},
		Flags: []int64{0, 0, 0, 1, 0, 0, 0, 0},
	}
	r, err := Resample(s, []float64{2.5, 4.5, 6.5})
	if err != nil {
		t.Fatal(err)
	}
	// The middle target bin overlaps source bin 3 (flagged).
	if r.Flags[1]&1 == 0 {
		t.Errorf("flag not propagated: %v", r.Flags)
	}
	// Bins outside source coverage get the no-coverage flag.
	r2, err := Resample(s, []float64{0.1, 0.2, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Flags[0]&2 == 0 {
		t.Errorf("no-coverage flag missing: %v", r2.Flags)
	}
	// Invalid target grids fail.
	if _, err := Resample(s, []float64{5, 4}); err == nil {
		t.Error("descending target must fail")
	}
	if _, err := Resample(s, []float64{5}); err == nil {
		t.Error("single-bin target must fail")
	}
}

func TestCompositeImprovesSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Many noisy realizations of the same object.
	specs := make([]*Spectrum, 40)
	for i := range specs {
		s, err := Synthesize(rng, SynthesisParams{
			Bins: 200, LoWave: 3800, HiWave: 7000, Z: 0.05, SNR: 5,
			BadFrac: 0.01, LineSeed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.ID = int64(i)
		specs[i] = s
	}
	grid, _ := LogGrid(4100, 7000, 150)
	comp, err := composite(specs, grid)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Synthesize(rng, SynthesisParams{
		Bins: 200, LoWave: 3800, HiWave: 7000, Z: 0.05, SNR: 1e9,
		BadFrac: 0, LineSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cleanR, err := Resample(clean, grid)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Resample(specs[0], grid)
	if err != nil {
		t.Fatal(err)
	}
	var errComp, errSingle float64
	n := 0
	for i := range grid {
		if comp.Flags[i] != 0 || single.Flags[i] != 0 || cleanR.Flags[i] != 0 {
			continue
		}
		errComp += math.Abs(comp.Flux[i] - cleanR.Flux[i])
		errSingle += math.Abs(single.Flux[i] - cleanR.Flux[i])
		n++
	}
	if n == 0 {
		t.Fatal("no clean bins to compare")
	}
	if errComp > errSingle/2 {
		t.Errorf("composite error %g not clearly below single %g", errComp/float64(n), errSingle/float64(n))
	}
	if _, err := composite(nil, grid); err == nil {
		t.Error("empty composite must fail")
	}
}

func TestCompositeByRedshift(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var specs []*Spectrum
	for i := 0; i < 12; i++ {
		z := 0.05 + 0.1*float64(i%3) // three z groups
		specs = append(specs, synth(t, rng, int64(i), z, 0))
	}
	grid, _ := LogGrid(4300, 6800, 100)
	groups, err := CompositeByRedshift(specs, grid, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Errorf("groups = %d, want 3", len(groups))
	}
	if _, err := CompositeByRedshift(specs, grid, 0); err == nil {
		t.Error("zero bin width must fail")
	}
}

func buildPCASet(t *testing.T, rng *rand.Rand, n int, badFrac float64) []*Spectrum {
	t.Helper()
	specs := make([]*Spectrum, n)
	for i := range specs {
		// Nearly common redshift: similarity search operates on spectra
		// aligned to a common frame, as the archive pipeline would do.
		z := 0.03 + 0.0002*float64(i%5)
		s, err := Synthesize(rng, SynthesisParams{
			Bins: 180, LoWave: 3800, HiWave: 7000, Z: z, SNR: 40,
			BadFrac: badFrac, LineSeed: int64(i % 6), // six distinct object types
		})
		if err != nil {
			t.Fatal(err)
		}
		s.ID = int64(i)
		specs[i] = s
	}
	return specs
}

func TestPCAReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	specs := buildPCASet(t, rng, 50, 0)
	grid, _ := LogGrid(4000, 6900, 120)
	basis, err := PCA(specs, grid, 8, 4300, 6500)
	if err != nil {
		t.Fatal(err)
	}
	if basis.NComp() != 8 || len(basis.Values) != 8 {
		t.Fatalf("basis shape wrong")
	}
	// Eigenvalues descending, non-negative.
	for j := 1; j < 8; j++ {
		if basis.Values[j] > basis.Values[j-1]+1e-12 {
			t.Error("eigenvalues not descending")
		}
	}
	// Expansion + reconstruction approximates the (clean) spectrum well.
	coef, err := basis.Expand(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, err := basis.Reconstruct(coef)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := basis.prepare(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for i := range rec {
		d := rec[i] - prep.Flux[i]
		num += d * d
		m := prep.Flux[i] - basis.Mean[i]
		den += m * m
	}
	if num > 0.2*den {
		t.Errorf("reconstruction captures too little variance: residual %g of %g", num, den)
	}
	if _, err := basis.Reconstruct([]float64{1}); err == nil {
		t.Error("wrong coefficient count must fail")
	}
	if _, err := PCA(specs[:1], grid, 2, 4300, 6500); err == nil {
		t.Error("single-spectrum PCA must fail")
	}
	if _, err := PCA(specs, grid, 0, 4300, 6500); err == nil {
		t.Error("zero components must fail")
	}
}

func TestMaskedExpansionBeatsDotProducts(t *testing.T) {
	// The §2.2 claim: with flagged pixels, dot products are polluted but
	// masked least squares recovers the true coefficients.
	rng := rand.New(rand.NewSource(7))
	specs := buildPCASet(t, rng, 60, 0)
	grid, _ := LogGrid(4000, 6900, 120)
	basis, err := PCA(specs, grid, 5, 4300, 6500)
	if err != nil {
		t.Fatal(err)
	}
	clean := specs[10]
	truth, err := basis.Expand(clean)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt 5% of pixels and flag them. Alternating signs keep the
	// broadband normalization integral roughly intact, isolating the
	// expansion method as the only difference.
	dirty := clean.Clone()
	sign := 50.0
	for i := 0; i < len(dirty.Flux); i += 20 {
		dirty.Flux[i] += sign
		sign = -sign
		dirty.Flags[i] = 1
	}
	masked, err := basis.Expand(dirty)
	if err != nil {
		t.Fatal(err)
	}
	dotted, err := basis.ExpandDot(dirty)
	if err != nil {
		t.Fatal(err)
	}
	var errMasked, errDot float64
	for j := range truth {
		errMasked += math.Abs(masked[j] - truth[j])
		errDot += math.Abs(dotted[j] - truth[j])
	}
	if errMasked > errDot/5 {
		t.Errorf("masked fit error %g not clearly below dot-product error %g", errMasked, errDot)
	}
}

func TestSimilarSpectrumSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	specs := buildPCASet(t, rng, 72, 0.01)
	grid, _ := LogGrid(4000, 6900, 120)
	basis, err := PCA(specs, grid, 6, 4300, 6500)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildSearchIndex(basis, specs)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh spectrum of object type 2 should retrieve mostly type-2
	// neighbours (IDs ≡ 2 mod 6).
	q, err := Synthesize(rng, SynthesisParams{
		Bins: 180, LoWave: 3800, HiWave: 7000, Z: 0.03, SNR: 40,
		BadFrac: 0.01, LineSeed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := ix.Similar(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 8 {
		t.Fatalf("got %d results", len(ids))
	}
	sameType := 0
	for _, id := range ids {
		if id%6 == 2 {
			sameType++
		}
	}
	if sameType < 5 {
		t.Errorf("only %d of 8 neighbours share the query's type", sameType)
	}
}

func TestStoreRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := memDB(t)
	st, err := CreateStore(db, "spectra")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Spectrum, 5)
	for i := range want {
		want[i] = synth(t, rng, int64(i), 0.01*float64(i), 0.02)
		if err := st.Insert(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Z != want[3].Z || len(got.Wave) != len(want[3].Wave) {
		t.Fatalf("metadata mismatch")
	}
	for i := range got.Wave {
		if got.Wave[i] != want[3].Wave[i] || got.Flux[i] != want[3].Flux[i] ||
			got.Err[i] != want[3].Err[i] || got.Flags[i] != want[3].Flags[i] {
			t.Fatalf("bin %d mismatch", i)
		}
	}
	if n := st.Table().Rows(); n != 5 {
		t.Fatalf("store holds %d spectra, want 5", n)
	}
	// Invalid spectrum rejected at insert.
	badSpec := want[0].Clone()
	badSpec.ID = 99
	badSpec.Wave[1] = badSpec.Wave[0]
	if err := st.Insert(badSpec); err == nil {
		t.Error("invalid spectrum must be rejected")
	}
}

// TestGetSliceMatchesGetAndReadsFewerChunks checks the ranged read: a
// narrow wavelength window must reproduce Get's samples exactly while
// touching fewer blob chunk pages than materializing the full spectrum.
// One GetSlice walks each column's blob directory once (four directory
// pages), and a window inside the columns' first blocks fetches one
// chunk page per column: the page that holds the array header holds the
// samples too.
func TestGetSliceMatchesGetAndReadsFewerChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := memDB(t)
	st, err := CreateStore(db, "spectra")
	if err != nil {
		t.Fatal(err)
	}
	// 4000 bins = 32 kB per float column: four chunk pages each.
	s, err := Synthesize(rng, SynthesisParams{
		Bins: 4000, LoWave: 3800, HiWave: 9200, Z: 0.05, SNR: 25, LineSeed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ID = 7
	if err := st.Insert(s); err != nil {
		t.Fatal(err)
	}

	chunkReads := func() uint64 { return metric(t, db.Metrics(), "blob.chunk_reads") }
	dirReads := func() uint64 { return metric(t, db.Metrics(), "blob.directory_reads") }
	start := chunkReads()
	full, err := st.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	fullChunks := chunkReads() - start

	const lo, hi = 1500, 1600
	chunks0, dirs0 := chunkReads(), dirReads()
	sl, err := st.GetSlice(7, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sliceChunks := chunkReads() - chunks0
	if dirs := dirReads() - dirs0; dirs != 4 {
		t.Errorf("GetSlice read %d directory pages, want 4 (one per column)", dirs)
	}
	if len(sl.Wave) != hi-lo {
		t.Fatalf("slice length = %d", len(sl.Wave))
	}
	for i := 0; i < hi-lo; i++ {
		if sl.Wave[i] != full.Wave[lo+i] || sl.Flux[i] != full.Flux[lo+i] ||
			sl.Err[i] != full.Err[lo+i] || sl.Flags[i] != full.Flags[lo+i] {
			t.Fatalf("bin %d mismatch", i)
		}
	}
	if sliceChunks >= fullChunks {
		t.Errorf("GetSlice touched %d chunks, Get touched %d — pushdown not effective",
			sliceChunks, fullChunks)
	}
	// Bins [100, 200) lie in every column's first 8064-byte block.
	chunks0, dirs0 = chunkReads(), dirReads()
	head, err := st.GetSlice(7, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if chunks, dirs := chunkReads()-chunks0, dirReads()-dirs0; chunks != 4 || dirs != 4 {
		t.Errorf("GetSlice inside the first blocks read %d chunk and %d directory pages, want 4 and 4", chunks, dirs)
	}
	for i := range head.Flux {
		if head.Wave[i] != full.Wave[100+i] || head.Flux[i] != full.Flux[100+i] ||
			head.Err[i] != full.Err[100+i] || head.Flags[i] != full.Flags[100+i] {
			t.Fatalf("bin %d of the first-block slice mismatch", 100+i)
		}
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames = %d", got)
	}

	if _, err := st.GetSlice(7, 100, 100); err == nil {
		t.Error("empty slice must fail")
	}
	if _, err := st.GetSlice(7, 3990, 5000); err == nil {
		t.Error("out-of-range slice must fail")
	}
}

// TestReadResultsOwnTheirMemory reads one spectrum twice with Get and
// twice with GetSlice and overwrites every slice of the first result of
// each: the second must still equal what Insert stored, so no result
// aliases the scratch array the store reads columns into.
func TestReadResultsOwnTheirMemory(t *testing.T) {
	db := memDB(t)
	st, err := CreateStore(db, "spectra")
	if err != nil {
		t.Fatal(err)
	}
	// 3000 bins: every float column spans three chunk pages.
	want, err := Synthesize(rand.New(rand.NewSource(46)), SynthesisParams{
		Bins: 3000, LoWave: 3800, HiWave: 9200, Z: 0.2, SNR: 20, BadFrac: 0.05, LineSeed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want.ID = 4
	if err := st.Insert(want); err != nil {
		t.Fatal(err)
	}
	scribble := func(s *Spectrum) {
		for _, v := range [][]float64{s.Wave, s.Flux, s.Err} {
			for i := range v {
				v[i] = -1
			}
		}
		for i := range s.Flags {
			s.Flags[i] = -1
		}
	}
	for _, r := range []struct {
		name   string
		lo, hi int
		read   func() (*Spectrum, error)
	}{
		{"Get", 0, 3000, func() (*Spectrum, error) { return st.Get(4) }},
		{"GetSlice", 1000, 2500, func() (*Spectrum, error) { return st.GetSlice(4, 1000, 2500) }},
	} {
		first, err := r.read()
		if err != nil {
			t.Fatal(err)
		}
		scribble(first)
		second, err := r.read()
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSlice(second, want, r.lo, r.hi); err != nil {
			t.Errorf("%s after overwriting the first result: %v", r.name, err)
		}
	}
}
