package main

import (
	"fmt"
	"math"
	"time"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/interp"
	"sqlarray/internal/obs"
	"sqlarray/internal/pages"
	"sqlarray/internal/turbulence"
)

// turb is §2.1's interpolation service in the I/O-bound regime the
// paper assumes: ghosted cubes stored as compressed blobs on a
// fixed-bandwidth disk behind a pool a quarter of their size, so wall
// clock follows pages moved. No SQL and no WAL run here.
type turb struct {
	d          *engine.DB
	st         *turbulence.Store
	gu, gv, gw *interp.Grid3D
	seed       int64
	n, batch   int
	cur        cursor
	user       int64

	// The whole-blob op re-reads the points of the stencil op just
	// before it; the two results must agree bit for bit.
	lastStencil    int
	lastStencilOut [][3]float64
}

var turbKinds = []string{"stencil", "wholeblob", "stencil_lag4"}

const (
	turbStencil = iota
	turbWhole
	turbLag4
)

// turbPattern is one cycle of the op mix: 4 Lag8 partial-read batches
// to 1 whole-blob batch, plus one batch with the 4-point kernel, whose
// stencils are an eighth the volume. Every op is a full batch: the
// throttled disk charges transfer time in sleeps of a millisecond or
// more, so a request too small to owe one would pass its cost to the
// next op.
var turbPattern = [6]int{turbStencil, turbStencil, turbWhole, turbStencil, turbLag4, turbStencil}

func setupTurb(seed int64, sz sizes) (instance, error) {
	f, err := turbulence.GenerateField(sz.turbN, sz.turbModes, seed)
	if err != nil {
		return nil, err
	}
	var disk pages.DiskManager = pages.NewMemDisk()
	if sz.turbDiskBps > 0 {
		disk = pages.NewThrottledDisk(disk, sz.turbDiskBps)
	}
	d, err := engine.Open(engine.Options{Disk: disk, PoolPages: sz.turbPool})
	if err != nil {
		return nil, err
	}
	st, err := turbulence.CreateStore(d, "turb", f, sz.turbCube, sz.turbGhost)
	if err != nil {
		return nil, err
	}
	// Write the load out now so the timed window reads only.
	if err := d.Pool().FlushAll(); err != nil {
		return nil, err
	}
	t := &turb{d: d, st: st, seed: seed, n: sz.turbN, batch: sz.turbBatch, lastStencil: -1}
	t.cur.i = int(sz.opStream) << 24 // each stream draws its own points
	t.user = int64(sz.turbN) * int64(sz.turbN) * int64(sz.turbN) * turbulence.Channels * 8
	for _, g := range []struct {
		dst  **interp.Grid3D
		data []float64
	}{{&t.gu, f.U}, {&t.gv, f.V}, {&t.gw, f.W}} {
		if *g.dst, err = interp.NewGrid3D(sz.turbN, g.data); err != nil {
			return nil, err
		}
	}
	if err := warmUp(t, sz.turbWarm); err != nil {
		return nil, err
	}
	return t, nil
}

// points returns the seeded positions of op i.
func (t *turb) points(i int) [][3]float64 {
	r := newRng(t.seed, uint64(i)+1)
	pts := make([][3]float64, t.batch)
	for k := range pts {
		for d := 0; d < 3; d++ {
			pts[k][d] = r.float() * float64(t.n)
		}
	}
	return pts
}

func (t *turb) step(tr *tracer) (int, time.Duration, error) {
	i := t.cur.i
	t.cur.i++
	kind := turbPattern[i%len(turbPattern)]
	defer tr.span("bench", "turb_stencil/"+turbKinds[kind])()

	src, scheme, mode := i, interp.Lag8, turbulence.PartialRead
	switch kind {
	case turbWhole:
		src, mode = i-1, turbulence.WholeBlob
	case turbLag4:
		scheme = interp.Lag4
	}
	pts := t.points(src)
	t0 := time.Now()
	done := tr.span("turbulence", "VelocityBatch")
	out, err := t.st.VelocityBatch(0, pts, scheme, mode)
	done()
	lat := time.Since(t0)
	if err != nil {
		return kind, lat, err
	}
	if err := t.verify(pts, out, scheme); err != nil {
		return kind, lat, err
	}
	switch kind {
	case turbStencil:
		t.lastStencil, t.lastStencilOut = i, out
	case turbWhole:
		if t.lastStencil == src {
			for k := range out {
				if out[k] != t.lastStencilOut[k] {
					return kind, lat, fmt.Errorf("point %d: whole-blob %v != partial-read %v", k, out[k], t.lastStencilOut[k])
				}
			}
		}
	}
	return kind, lat, nil
}

// verify samples the generated field directly at each point, within
// the tolerance internal/turbulence's own tests use.
func (t *turb) verify(pts, out [][3]float64, scheme interp.Scheme) error {
	if len(out) != len(pts) {
		return fmt.Errorf("%d results for %d points", len(out), len(pts))
	}
	for k, p := range pts {
		want := [3]float64{
			t.gu.Sample(p[0], p[1], p[2], scheme),
			t.gv.Sample(p[0], p[1], p[2], scheme),
			t.gw.Sample(p[0], p[1], p[2], scheme),
		}
		for d := 0; d < 3; d++ {
			if math.Abs(out[k][d]-want[d]) > 1e-10 {
				return fmt.Errorf("point %v component %d: %g, want %g", p, d, out[k][d], want[d])
			}
		}
	}
	return nil
}

func (t *turb) pos() cursor            { return t.cur }
func (t *turb) seek(c cursor)          { t.cur = c }
func (t *turb) cycle() int             { return len(turbPattern) }
func (t *turb) counters() obs.Snapshot { return t.d.Metrics().Snapshot() }
func (t *turb) db() *engine.DB         { return t.d }
func (t *turb) close() (int, int)      { return 0, 0 }

func (t *turb) footprint() (int64, int64) {
	return int64(t.d.Pool().Disk().NumPages()) * pages.PageSize, t.user
}

// probeTurb measures what the blob and core layers contribute to one
// stencil batch: bytes a partial read moves against a whole-blob read
// of the same points, disk bytes per point from a cold pool, how many
// blobs a batch touches, and the compute floor — the same batch again
// with every chunk resident — as a share of the first, uncached pass.
func probeTurb(t *turb, m map[string]float64) error {
	reg := t.d.Metrics()
	delta := func(fn func() error) (obs.Snapshot, time.Duration, error) {
		before := reg.Snapshot()
		t0 := time.Now()
		err := fn()
		return reg.Snapshot().Delta(before), time.Since(t0), err
	}
	batch := func(pts [][3]float64, mode turbulence.FetchMode) func() error {
		return func() error {
			_, err := t.st.VelocityBatch(0, pts, interp.Lag8, mode)
			return err
		}
	}
	const probeOp = 1 << 20 // op indexes the workload never reaches
	var first, again []float64
	for r := 0; r < 5; r++ {
		pts := t.points(probeOp + r)
		_, d1, err := delta(batch(pts, turbulence.PartialRead))
		if err != nil {
			return err
		}
		_, d2, err := delta(batch(pts, turbulence.PartialRead))
		if err != nil {
			return err
		}
		first, again = append(first, float64(d1)), append(again, float64(d2))
	}
	m["turbulence.compute_share"] = median(again) / median(first)

	pts := t.points(probeOp + 5)
	cube := float64(t.st.CubeSide())
	blobs := map[[3]int]bool{}
	for _, p := range pts {
		blobs[[3]int{int(p[0] / cube), int(p[1] / cube), int(p[2] / cube)}] = true
	}
	m["turbulence.blobs_per_batch"] = float64(len(blobs))
	if err := t.d.DropCleanBuffers(); err != nil {
		return err
	}
	part, _, err := delta(batch(pts, turbulence.PartialRead))
	if err != nil {
		return err
	}
	m["turbulence.disk_bytes_per_point"] = float64(part.Get("pages.bytes_read")) / float64(len(pts))
	whole, _, err := delta(batch(pts, turbulence.WholeBlob))
	if err != nil {
		return err
	}
	if w := whole.Get("blob.bytes_read"); w > 0 {
		m["blob.partial_over_whole_bytes"] = float64(part.Get("blob.bytes_read")) / float64(w)
	}

	// The run plan of one Lag8 stencil: an 8³ corner of three of the
	// four channels of a ghosted cube.
	side := t.st.CubeSide() + 2*t.st.Ghost()
	h := core.Header{Class: core.Max, Elem: core.Float64, Dims: []int{side, side, side, turbulence.Channels}}
	off, size := []int{1, 2, 3, 0}, []int{8, 8, 8, 3}
	const plans = 2000
	t0 := time.Now()
	for i := 0; i < plans; i++ {
		if _, err := core.SubarrayPlan(h, off, size); err != nil {
			return err
		}
	}
	m["core.subarray_plan_ns"] = float64(time.Since(t0)) / plans
	return nil
}
