package turbulence

import (
	"math"
	"testing"

	"sqlarray/internal/engine"
	"sqlarray/internal/interp"
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

func genField(t *testing.T, n int) *Field {
	t.Helper()
	f, err := GenerateField(n, 24, 42)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGenerateFieldErrors(t *testing.T) {
	if _, err := GenerateField(2, 8, 1); err == nil {
		t.Error("tiny grid must fail")
	}
	if _, err := GenerateField(16, 0, 1); err == nil {
		t.Error("zero modes must fail")
	}
}

func TestFieldIsDeterministic(t *testing.T) {
	a := genField(t, 16)
	b := genField(t, 16)
	for i := range a.U {
		if a.U[i] != b.U[i] || a.P[i] != b.P[i] {
			t.Fatal("same seed must reproduce the field")
		}
	}
}

func TestFieldDivergenceFree(t *testing.T) {
	f := genField(t, 32)
	// The analytic field is exactly divergence-free; the central
	// difference on the grid should be small relative to the velocity
	// magnitude.
	var maxDiv, maxV float64
	for z := 0; z < 32; z += 3 {
		for y := 0; y < 32; y += 3 {
			for x := 0; x < 32; x += 3 {
				if d := math.Abs(f.Divergence(x, y, z)); d > maxDiv {
					maxDiv = d
				}
				u, v, w, _ := f.At(x, y, z)
				if m := math.Sqrt(u*u + v*v + w*w); m > maxV {
					maxV = m
				}
			}
		}
	}
	if maxDiv > 0.2*maxV {
		t.Errorf("divergence %g too large vs velocity scale %g", maxDiv, maxV)
	}
}

func newStore(t *testing.T, n, cube, ghost int) (*Store, *Field) {
	t.Helper()
	f := genField(t, n)
	db := memDB(t)
	s, err := CreateStore(db, "turb", f, cube, ghost)
	if err != nil {
		t.Fatal(err)
	}
	return s, f
}

func TestCreateStoreValidation(t *testing.T) {
	f := genField(t, 16)
	db := memDB(t)
	if _, err := CreateStore(db, "t1", f, 5, 4); err == nil {
		t.Error("non-dividing cube must fail")
	}
	if _, err := CreateStore(db, "t2", f, 8, -1); err == nil {
		t.Error("negative ghost must fail")
	}
}

func TestStoreRowCountAndBlockBytes(t *testing.T) {
	s, _ := newStore(t, 16, 8, 4)
	// 16/8 = 2 cubes per axis -> 8 rows.
	if s.table.Rows() != 8 {
		t.Errorf("rows = %d, want 8", s.table.Rows())
	}
	// Block of (8+8)³ x 4 channels x 8 bytes + header.
	want := 16*16*16*4*8 + 32 // 16-byte fixed max header + 4 dims x 4
	if got := s.BlockBytes(); got != want {
		t.Errorf("BlockBytes = %d, want %d", got, want)
	}
	if s.n != 16 || s.CubeSide() != 8 || s.Ghost() != 4 {
		t.Error("geometry accessors wrong")
	}
}

func TestNearestInterpolationMatchesGrid(t *testing.T) {
	s, f := newStore(t, 16, 8, 4)
	for _, p := range [][3]float64{{0, 0, 0}, {5, 3, 7}, {15, 15, 15}, {8, 8, 8}} {
		v, err := s.Velocity(0, p, interp.Nearest, WholeBlob)
		if err != nil {
			t.Fatalf("at %v: %v", p, err)
		}
		u, vv, w, _ := f.At(int(p[0]), int(p[1]), int(p[2]))
		if v[0] != u || v[1] != vv || v[2] != w {
			t.Errorf("nearest at %v = %v, want (%g,%g,%g)", p, v, u, vv, w)
		}
	}
}

func TestInterpolationMatchesDirectGridSampling(t *testing.T) {
	// The service (blob path) must agree with interp.Grid3D applied to
	// the raw periodic field — this validates ghost-zone packing.
	s, f := newStore(t, 16, 8, 4)
	gu, err := interp.NewGrid3D(16, f.U)
	if err != nil {
		t.Fatal(err)
	}
	gv, _ := interp.NewGrid3D(16, f.V)
	gw, _ := interp.NewGrid3D(16, f.W)
	pts := [][3]float64{
		{1.3, 2.7, 3.1},
		{7.9, 7.9, 7.9},  // cube edge: stencil reaches into ghosts
		{8.1, 0.2, 15.8}, // wraps around the periodic boundary
		{0.05, 0.05, 0.05},
		{12.5, 4.25, 9.75},
	}
	for _, scheme := range []interp.Scheme{interp.Linear, interp.Lag4, interp.Lag6, interp.Lag8} {
		for _, p := range pts {
			got, err := s.Velocity(0, p, scheme, WholeBlob)
			if err != nil {
				t.Fatalf("%v at %v: %v", scheme, p, err)
			}
			want := [3]float64{
				gu.Sample(p[0], p[1], p[2], scheme),
				gv.Sample(p[0], p[1], p[2], scheme),
				gw.Sample(p[0], p[1], p[2], scheme),
			}
			for d := 0; d < 3; d++ {
				if math.Abs(got[d]-want[d]) > 1e-10 {
					t.Errorf("%v at %v ch %d: %g vs %g", scheme, p, d, got[d], want[d])
				}
			}
		}
	}
}

// TestVelocityBatchRejectsBadInput: a non-finite coordinate or an
// unknown scheme is an error, raised before any page is read, in both
// fetch modes — not a panic, a NaN velocity or a zero vector.
func TestVelocityBatchRejectsBadInput(t *testing.T) {
	s, _ := newStore(t, 16, 8, 4)
	nan, inf := math.NaN(), math.Inf(1)
	for _, mode := range []FetchMode{WholeBlob, PartialRead} {
		for _, tc := range []struct {
			name   string
			p      [3]float64
			scheme interp.Scheme
		}{
			{"NaN lag4", [3]float64{nan, 1, 1}, interp.Lag4},
			{"NaN nearest", [3]float64{1, 1, nan}, interp.Nearest},
			{"+Inf lag8", [3]float64{1, inf, 1}, interp.Lag8},
			{"-Inf linear", [3]float64{-inf, 1, 1}, interp.Linear},
			{"+Inf nearest", [3]float64{inf, 1, 1}, interp.Nearest},
			{"unknown scheme", [3]float64{1.5, 2.5, 3.5}, interp.Scheme(42)},
		} {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				before := s.db.Pool().Stats().LogicalReads
				pts := [][3]float64{{1.3, 2.7, 3.1}, tc.p}
				out, err := s.VelocityBatch(0, pts, tc.scheme, mode)
				if err == nil {
					t.Fatalf("VelocityBatch = %v, nil error; want an error", out)
				}
				if got := s.db.Pool().Stats().LogicalReads - before; got != 0 {
					t.Errorf("rejected batch read %d pages first: %v", got, err)
				}
			})
		}
	}
}

func TestPartialReadMatchesWholeBlob(t *testing.T) {
	s, _ := newStore(t, 16, 8, 4)
	pts := [][3]float64{
		{1.3, 2.7, 3.1}, {7.9, 7.9, 7.9}, {8.1, 0.2, 15.8}, {4.4, 11.6, 6.2},
	}
	for _, scheme := range []interp.Scheme{interp.Nearest, interp.Linear, interp.Lag8} {
		whole, err := s.VelocityBatch(0, pts, scheme, WholeBlob)
		if err != nil {
			t.Fatal(err)
		}
		part, err := s.VelocityBatch(0, pts, scheme, PartialRead)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			for d := 0; d < 3; d++ {
				if math.Abs(whole[i][d]-part[i][d]) > 1e-12 {
					t.Errorf("%v point %d ch %d: whole %g, partial %g",
						scheme, i, d, whole[i][d], part[i][d])
				}
			}
		}
	}
}

// statsSince returns the I/O the service generated since base was taken.
func statsSince(s *Store, base ServiceStats) ServiceStats {
	st := s.Stats()
	st.PhysicalReads -= base.PhysicalReads
	st.BytesRead -= base.BytesRead
	st.ChunkReads -= base.ChunkReads
	return st
}

func TestPartialReadTouchesLessData(t *testing.T) {
	// §2.1's point: an 8³ stencil should not pull a whole block.
	s, _ := newStore(t, 32, 16, 4)
	pts := [][3]float64{{5.5, 5.5, 5.5}}

	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	base := s.Stats()
	if _, err := s.VelocityBatch(0, pts, interp.Lag8, WholeBlob); err != nil {
		t.Fatal(err)
	}
	whole := statsSince(s, base)

	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	base = s.Stats()
	if _, err := s.VelocityBatch(0, pts, interp.Lag8, PartialRead); err != nil {
		t.Fatal(err)
	}
	part := statsSince(s, base)

	if part.BytesRead >= whole.BytesRead {
		t.Errorf("partial read %d bytes >= whole read %d bytes", part.BytesRead, whole.BytesRead)
	}
	// The partial path issues more logical chunk touches (one per run)
	// but they hit cached pages; the physical page traffic must drop.
	if part.PhysicalReads >= whole.PhysicalReads {
		t.Errorf("partial physical reads %d >= whole %d", part.PhysicalReads, whole.PhysicalReads)
	}
}

func TestGhostTooSmallRejected(t *testing.T) {
	s, _ := newStore(t, 16, 8, 2) // ghost 2 < 4 needed by Lag8
	if _, err := s.Velocity(0, [3]float64{1, 1, 1}, interp.Lag8, WholeBlob); err == nil {
		t.Error("Lag8 with ghost 2 must fail")
	}
	// Lag4 (needs 2) still works.
	if _, err := s.Velocity(0, [3]float64{5, 5, 5}, interp.Lag4, WholeBlob); err != nil {
		t.Errorf("Lag4 with ghost 2: %v", err)
	}
}

func TestMultipleSnapshots(t *testing.T) {
	f0 := genField(t, 16)
	f1, err := GenerateField(16, 24, 99) // different seed
	if err != nil {
		t.Fatal(err)
	}
	db := memDB(t)
	s, err := CreateStore(db, "turb", f0, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSnapshot(1, f1); err != nil {
		t.Fatal(err)
	}
	if s.table.Rows() != 16 {
		t.Errorf("rows = %d, want 16", s.table.Rows())
	}
	p := [3]float64{3, 3, 3}
	v0, err := s.Velocity(0, p, interp.Nearest, WholeBlob)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.Velocity(1, p, interp.Nearest, WholeBlob)
	if err != nil {
		t.Fatal(err)
	}
	if v0 == v1 {
		t.Error("snapshots with different seeds must differ")
	}
	u, _, _, _ := f1.At(3, 3, 3)
	if v1[0] != u {
		t.Errorf("snapshot 1 velocity = %g, want %g", v1[0], u)
	}
	// Mismatched snapshot geometry is rejected.
	f8, _ := GenerateField(8, 8, 1)
	if err := s.AddSnapshot(2, f8); err == nil {
		t.Error("mismatched snapshot grid must fail")
	}
}

func TestBatchCachesBlocks(t *testing.T) {
	s, _ := newStore(t, 16, 8, 4)
	// 100 points in the same cube: the whole-blob path must fetch the
	// blob once, not 100 times.
	pts := make([][3]float64, 100)
	for i := range pts {
		pts[i] = [3]float64{1 + float64(i%5)*0.3, 2, 3}
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	base := s.Stats()
	if _, err := s.VelocityBatch(0, pts, interp.Lag4, WholeBlob); err != nil {
		t.Fatal(err)
	}
	st := statsSince(s, base)
	blockPages := uint64(s.BlockBytes()/8096 + 2)
	if st.PhysicalReads > 4*blockPages {
		t.Errorf("batch read %d pages; caching broken (block is ~%d pages)",
			st.PhysicalReads, blockPages)
	}
}
