package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"sqlarray"
	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
	"sqlarray/internal/pages"
	"sqlarray/internal/spectra"
	"sqlarray/internal/sqlmini"
)

// spectraWL is §2.2's line cut-outs on a store that fits its pool: after
// warm-up every page is a hit, so what is left is the fixed cost per
// small op — SQL parse and plan, B+tree descent, pool latch and pin,
// partial blob read on resident chunks. It is the counterpart of the
// two pool-smaller-than-data workloads: a miss-path or codec change
// should leave it flat.
type spectraWL struct {
	d    *sqlarray.Database
	st   *spectra.Store
	orig []*spectra.Spectrum
	cdf  []float64 // Zipf over ranks
	perm []int     // rank → id, seeded
	bins int
	grid int
	cur  cursor
	user int64

	// resampled memoizes the flux checksum of Resample(orig[id]); the
	// first resample op on an id pays for the reference.
	resampled map[int64]float64
}

var spectraKinds = []string{"slice", "sqlpoint", "resample", "sqlrange"}

const (
	specSlice = iota
	specSQLPoint
	specResample
	specSQLRange
)

const sliceBins = 64

func setupSpectra(seed int64, sz sizes) (instance, error) {
	d, err := sqlarray.OpenDatabase(sqlarray.Options{Disk: pages.NewMemDisk(), PoolPages: sz.specPool})
	if err != nil {
		return nil, err
	}
	st, err := spectra.CreateStore(d.DB, "spectra")
	if err != nil {
		return nil, err
	}
	gen := rand.New(rand.NewSource(seed))
	s := &spectraWL{
		d: d, st: st, bins: sz.specBins, grid: sz.specGrid,
		cur:       cursor{r: newRng(seed, sz.opStream)},
		resampled: map[int64]float64{},
		user:      int64(sz.specN) * int64(sz.specBins) * (3*8 + 2),
	}
	for i := 0; i < sz.specN; i++ {
		sp, err := spectra.Synthesize(gen, spectra.SynthesisParams{
			Bins: sz.specBins, LoWave: 3800, HiWave: 9200,
			Z: 0.3 * gen.Float64(), SNR: 20, BadFrac: 0.01, LineSeed: int64(i % 7),
		})
		if err != nil {
			return nil, err
		}
		sp.ID = int64(i)
		if err := st.Insert(sp); err != nil {
			return nil, err
		}
		s.orig = append(s.orig, sp)
	}
	// Zipf(1) over popularity ranks; which id holds which rank is
	// seeded.
	s.perm = gen.Perm(sz.specN)
	total := 0.0
	for r := 0; r < sz.specN; r++ {
		total += 1 / float64(r+1)
		s.cdf = append(s.cdf, total)
	}
	for r := range s.cdf {
		s.cdf[r] /= total
	}
	if err := warmUp(s, sz.specWarm); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *spectraWL) pickID() int64 {
	rank := sort.SearchFloat64s(s.cdf, s.cur.r.float())
	if rank >= len(s.perm) {
		rank = len(s.perm) - 1
	}
	return int64(s.perm[rank])
}

func (s *spectraWL) step(tr *tracer) (int, time.Duration, error) {
	s.cur.i++
	u := s.cur.r.float()
	switch {
	case u < 0.6:
		return s.slice(tr)
	case u < 0.8:
		return s.sqlPoint(tr)
	case u < 0.9:
		return s.sqlRange(tr)
	default:
		return s.resample(tr)
	}
}

func (s *spectraWL) slice(tr *tracer) (int, time.Duration, error) {
	defer tr.span("bench", "spectra_hot/slice")()
	id := s.pickID()
	lo := s.cur.r.intn(s.bins - sliceBins)
	t0 := time.Now()
	done := tr.span("spectra", "GetSlice")
	got, err := s.st.GetSlice(id, lo, lo+sliceBins)
	done()
	lat := time.Since(t0)
	if err != nil {
		return specSlice, lat, err
	}
	o := s.orig[id]
	want := &spectra.Spectrum{
		ID: id, Z: o.Z, Wave: o.Wave[lo : lo+sliceBins], Flux: o.Flux[lo : lo+sliceBins],
		Err: o.Err[lo : lo+sliceBins], Flags: o.Flags[lo : lo+sliceBins],
	}
	return specSlice, lat, sameSpectrum(got, want)
}

// sameSpectrum compares a stored spectrum with the in-memory original,
// exactly.
func sameSpectrum(got, want *spectra.Spectrum) error {
	if got.ID != want.ID || got.Z != want.Z {
		return fmt.Errorf("spectrum %d: id/z %d/%v, want %v", want.ID, got.ID, got.Z, want.Z)
	}
	if !slices.Equal(got.Wave, want.Wave) || !slices.Equal(got.Flux, want.Flux) ||
		!slices.Equal(got.Err, want.Err) || !slices.Equal(got.Flags, want.Flags) {
		return fmt.Errorf("spectrum %d: stored vectors differ from the original", want.ID)
	}
	return nil
}

func pointQuery(id int64, bin int) string {
	return fmt.Sprintf("SELECT z, FloatArrayMax.Item_1(flux, %d) FROM spectra WHERE id = %d", bin, id)
}

func (s *spectraWL) sqlPoint(tr *tracer) (int, time.Duration, error) {
	defer tr.span("bench", "spectra_hot/sqlpoint")()
	id := s.pickID()
	bin := s.cur.r.intn(s.bins)
	q := pointQuery(id, bin)
	t0 := time.Now()
	done := tr.span("sqlmini", "Query")
	res, err := s.d.Query(q)
	done()
	lat := time.Since(t0)
	if err != nil {
		return specSQLPoint, lat, err
	}
	o := s.orig[id]
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][0].F != o.Z || res.Rows[0][1].F != o.Flux[bin] {
		return specSQLPoint, lat, fmt.Errorf("%s: rows %v, want [%v %v]", q, res.Rows, o.Z, o.Flux[bin])
	}
	return specSQLPoint, lat, nil
}

func (s *spectraWL) sqlRange(tr *tracer) (int, time.Duration, error) {
	defer tr.span("bench", "spectra_hot/sqlrange")()
	n := 1 + s.cur.r.intn(50)
	if n > len(s.orig) {
		n = len(s.orig)
	}
	lo := s.cur.r.intn(len(s.orig) - n + 1)
	q := fmt.Sprintf("SELECT COUNT(*), SUM(z) FROM spectra WHERE id >= %d AND id < %d", lo, lo+n)
	t0 := time.Now()
	done := tr.span("sqlmini", "Query")
	res, err := s.d.Query(q)
	done()
	lat := time.Since(t0)
	if err != nil {
		return specSQLRange, lat, err
	}
	sum := 0.0
	for _, o := range s.orig[lo : lo+n] {
		sum += o.Z
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
		return specSQLRange, lat, fmt.Errorf("%s: result shape %v", q, res.Rows)
	}
	cnt, _ := res.Rows[0][0].AsInt()
	got, _ := res.Rows[0][1].AsFloat()
	if cnt != int64(n) || math.Abs(got-sum) > 1e-12*math.Max(1, sum) {
		return specSQLRange, lat, fmt.Errorf("%s: (%d, %v), want (%d, %v)", q, cnt, got, n, sum)
	}
	return specSQLRange, lat, nil
}

// targetGrid is the coarser grid a spectrum is resampled onto, inside
// its own wavelength range.
func (s *spectraWL) targetGrid(o *spectra.Spectrum) ([]float64, error) {
	return spectra.LogGrid(o.Wave[0]*1.01, o.Wave[len(o.Wave)-1]*0.99, s.grid)
}

func fluxSum(sp *spectra.Spectrum) float64 {
	sum := 0.0
	for _, f := range sp.Flux {
		sum += f
	}
	return sum
}

func (s *spectraWL) resample(tr *tracer) (int, time.Duration, error) {
	defer tr.span("bench", "spectra_hot/resample")()
	id := s.pickID()
	o := s.orig[id]
	grid, err := s.targetGrid(o)
	if err != nil {
		return specResample, 0, err
	}
	t0 := time.Now()
	done := tr.span("spectra", "Get")
	got, err := s.st.Get(id)
	done()
	var out *spectra.Spectrum
	if err == nil {
		done = tr.span("spectra", "Resample")
		out, err = spectra.Resample(got, grid)
		done()
	}
	lat := time.Since(t0)
	if err != nil {
		return specResample, lat, err
	}
	if err := sameSpectrum(got, o); err != nil {
		return specResample, lat, err
	}
	want, ok := s.resampled[id]
	if !ok {
		ref, err := spectra.Resample(o, grid)
		if err != nil {
			return specResample, lat, err
		}
		want = fluxSum(ref)
		s.resampled[id] = want
	}
	if len(out.Flux) != s.grid || fluxSum(out) != want {
		return specResample, lat, fmt.Errorf("spectrum %d resampled: %d bins sum %v, want %d bins sum %v",
			id, len(out.Flux), fluxSum(out), s.grid, want)
	}
	return specResample, lat, nil
}

func (s *spectraWL) pos() cursor            { return s.cur }
func (s *spectraWL) seek(c cursor)          { s.cur = c }
func (s *spectraWL) cycle() int             { return 1 }
func (s *spectraWL) counters() obs.Snapshot { return s.d.Metrics().Snapshot() }
func (s *spectraWL) db() *engine.DB         { return s.d.DB }
func (s *spectraWL) close() (int, int)      { return 0, 0 }

func (s *spectraWL) footprint() (int64, int64) {
	return int64(s.d.Pool().Disk().NumPages()) * pages.PageSize, s.user
}

// timeEach returns the mean time of n calls to fn.
func timeEach(n int, fn func(i int) error) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(n), nil
}

// probeSpectra times the layers under one hot small op separately: the
// B+tree descent (Table.Get), a resident partial blob read
// (Table.BlobSubarray), the three stages of the SQL point query
// (Parse, Explain for the planner, ExecWith), and the store's
// whole-spectrum read and resample.
func probeSpectra(s *spectraWL, m map[string]float64) error {
	const n = 200
	tbl := s.st.Table()
	reg := s.d.Metrics()
	id := func(i int) int64 { return int64(i % len(s.orig)) }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	// One pass first so the timed passes find everything resident.
	for i := 0; i < n && i < len(s.orig); i++ {
		if _, err := s.st.Get(id(i)); err != nil {
			return err
		}
	}
	before := reg.Snapshot()
	d, err := timeEach(n, func(i int) error { _, err := tbl.Get(id(i)); return err })
	if err != nil {
		return err
	}
	m["btree.get_us"] = us(d)
	m["btree.descent_pages_per_lookup"] = float64(reg.Snapshot().Delta(before).Get("pages.logical_reads")) / n

	row, err := tbl.Get(0)
	if err != nil {
		return err
	}
	fluxRef := row[3].B
	d, err = timeEach(n, func(i int) error {
		_, err := tbl.BlobSubarray(fluxRef, []int{i % (s.bins - sliceBins)}, []int{sliceBins}, false)
		return err
	})
	if err != nil {
		return err
	}
	m["blob.subarray_hot_us"] = us(d)

	q := pointQuery(0, 1)
	if d, err = timeEach(n, func(int) error { _, err := sqlmini.Parse(q); return err }); err != nil {
		return err
	}
	m["sqlmini.parse_us"] = us(d)
	stmt, err := sqlmini.Parse(q)
	if err != nil {
		return err
	}
	if d, err = timeEach(n, func(int) error { _, err := sqlmini.Explain(s.d.DB, stmt, sqlmini.ExecOptions{}); return err }); err != nil {
		return err
	}
	m["sqlmini.plan_us"] = us(d)
	if d, err = timeEach(n, func(int) error { _, err := sqlmini.ExecWith(s.d.DB, stmt, sqlmini.ExecOptions{}); return err }); err != nil {
		return err
	}
	m["sqlmini.exec_us"] = us(d)

	if d, err = timeEach(n/4, func(i int) error { _, err := s.st.Get(id(i)); return err }); err != nil {
		return err
	}
	m["spectra.get_us"] = us(d)
	o := s.orig[0]
	grid, err := s.targetGrid(o)
	if err != nil {
		return err
	}
	if d, err = timeEach(n/4, func(int) error { _, err := spectra.Resample(o, grid); return err }); err != nil {
		return err
	}
	m["spectra.resample_us"] = us(d)
	return nil
}
