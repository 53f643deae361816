package turbulence

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/interp"
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
				if d := math.Abs(f.divergence(x, y, z)); d > maxDiv {
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
	// Velocity blob of (8+8)³ x 3 channels x 8 bytes + header.
	want := 16*16*16*3*8 + 40 // 16-byte fixed max header + 6 dims x 4
	if got := s.BlockBytes(); got != want {
		t.Errorf("BlockBytes = %d, want %d", got, want)
	}
	if s.n != 16 || s.CubeSide() != 8 || s.Ghost() != 4 {
		t.Error("geometry accessors wrong")
	}
}

// TestNearestInterpolationMatchesGrid: Nearest returns the grid node
// nearest the point, also when that node lies in the next cube over or,
// past the grid's end, in cube 0 — in both fetch modes, and without
// ghost zones, where that node is in no ghost of the point's cube.
func TestNearestInterpolationMatchesGrid(t *testing.T) {
	for _, ghost := range []int{0, 4} {
		s, f := newStore(t, 16, 8, ghost)
		pts := [][3]float64{{0, 0, 0}, {5, 3, 7}, {15, 15, 15}, {8, 8, 8}}
		for d := 0; d < 3; d++ { // every cube face, from both sides
			for _, x := range []float64{-0.4, 0.4, 7.6, 8.4, 15.6, -1e-20} {
				p := [3]float64{3, 4.6, 12.5}
				p[d] = x
				pts = append(pts, p)
			}
		}
		for _, mode := range []FetchMode{WholeBlob, PartialRead} {
			out, err := s.VelocityBatch(0, pts, interp.Nearest, mode)
			if err != nil {
				t.Fatalf("ghost %d %v: %v", ghost, mode, err)
			}
			for i, p := range pts {
				u, v, w, _ := f.At(int(math.Round(p[0])), int(math.Round(p[1])), int(math.Round(p[2])))
				if want := [3]float64{u, v, w}; out[i] != want {
					t.Errorf("ghost %d %v: nearest at %v = %v, want %v", ghost, mode, p, out[i], want)
				}
			}
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
		{-1e-20, 3.5, 2.25}, // x wraps to 16.0 in float64, which is node 0
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
				before := metric(t, s.db.Metrics(), "pages.logical_reads")
				pts := [][3]float64{{1.3, 2.7, 3.1}, tc.p}
				out, err := s.VelocityBatch(0, pts, tc.scheme, mode)
				if err == nil {
					t.Fatalf("VelocityBatch = %v, nil error; want an error", out)
				}
				if got := metric(t, s.db.Metrics(), "pages.logical_reads") - before; got != 0 {
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
				if whole[i][d] != part[i][d] {
					t.Errorf("%v point %d ch %d: whole %g, partial %g",
						scheme, i, d, whole[i][d], part[i][d])
				}
			}
		}
	}
}

func TestPartialReadTouchesLessData(t *testing.T) {
	// §2.1's point: an 8³ stencil should not pull a whole block.
	s, _ := newStore(t, 32, 16, 4)
	pts := [][3]float64{{5.5, 5.5, 5.5}}
	reg := s.db.Metrics()
	cold := func(mode FetchMode) (bytesRead, physicalReads uint64) {
		t.Helper()
		if err := s.DropCache(); err != nil {
			t.Fatal(err)
		}
		b0, p0 := metric(t, reg, "pages.bytes_read"), metric(t, reg, "pages.physical_reads")
		if _, err := s.VelocityBatch(0, pts, interp.Lag8, mode); err != nil {
			t.Fatal(err)
		}
		return metric(t, reg, "pages.bytes_read") - b0, metric(t, reg, "pages.physical_reads") - p0
	}
	wholeBytes, wholeReads := cold(WholeBlob)
	partBytes, partReads := cold(PartialRead)

	if partBytes >= wholeBytes {
		t.Errorf("partial read %d bytes >= whole read %d bytes", partBytes, wholeBytes)
	}
	// The partial path issues more logical chunk touches (one per run)
	// but they hit cached pages; the physical page traffic must drop.
	if partReads >= wholeReads {
		t.Errorf("partial physical reads %d >= whole %d", partReads, wholeReads)
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
	base := metric(t, s.db.Metrics(), "pages.physical_reads")
	if _, err := s.VelocityBatch(0, pts, interp.Lag4, WholeBlob); err != nil {
		t.Fatal(err)
	}
	physicalReads := metric(t, s.db.Metrics(), "pages.physical_reads") - base
	blockPages := uint64(s.BlockBytes()/8096 + 2)
	if physicalReads > 4*blockPages {
		t.Errorf("batch read %d pages; caching broken (block is ~%d pages)",
			physicalReads, blockPages)
	}
}

// TestLargeBatchReadsCubeByCube: a batch of §2.1's size reads each cube
// while it is hot. 1500 Lag8 points over all 64 cubes of a 32³ field,
// duplicates and periodic images included, on a 128-page pool against
// about 900 pages of cubes: a cold PartialRead batch reads no more
// physical pages than a cold WholeBlob batch, which reads every touched
// cube whole, and both return, bit for bit and in the caller's order,
// what one Velocity call per point returns.
func TestLargeBatchReadsCubeByCube(t *testing.T) {
	f := genField(t, 32)
	db, err := engine.Open(engine.Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	s, err := CreateStore(db, "turb", f, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pts := seededPoints(5, 1200, 32)
	for i := 0; i < 300; i++ {
		p := pts[(i*37)%len(pts)]
		if i%2 == 1 { // the same point one period over on each axis
			p = [3]float64{p[0] + 32, p[1] - 32, p[2] + 64}
		}
		pts = append(pts, p)
	}
	reg := s.db.Metrics()
	reads := map[FetchMode]uint64{}
	for _, mode := range []FetchMode{WholeBlob, PartialRead} {
		if err := s.DropCache(); err != nil {
			t.Fatal(err)
		}
		before := metric(t, reg, "pages.physical_reads")
		out, err := s.VelocityBatch(0, pts, interp.Lag8, mode)
		if err != nil {
			t.Fatal(err)
		}
		reads[mode] = metric(t, reg, "pages.physical_reads") - before
		for i, p := range pts {
			want, err := s.Velocity(0, p, interp.Lag8, mode)
			if err != nil {
				t.Fatal(err)
			}
			if out[i] != want {
				t.Fatalf("%v point %d at %v: batch %v, alone %v", mode, i, p, out[i], want)
			}
		}
	}
	t.Logf("cold %d-point Lag8 batch: %d physical reads whole-blob, %d partial",
		len(pts), reads[WholeBlob], reads[PartialRead])
	if reads[PartialRead] > reads[WholeBlob] {
		t.Errorf("partial-read batch read %d pages, whole-blob batch %d", reads[PartialRead], reads[WholeBlob])
	}
}

// TestStoredBlockLayout: a stored cube is two arrays. Its blob column
// is the velocity in 4³ tiles, a (12, 4, 4, m/4, m/4, m/4) array whose
// element (3·(x%4) + ch, y%4, z%4, x/4, y/4, z/4) is velocity channel
// ch of the field at the block's origin plus (x, y, z), periodically
// wrapped; its p column is an (m, m, m) array of the pressure at the
// same nodes — in the interior and in the ghost zones.
func TestStoredBlockLayout(t *testing.T) {
	s, f := newStore(t, 16, 8, 4)
	m := s.blockSide()
	const tile = 4
	snap := s.db.Snapshot()
	defer snap.Release()
	for _, c := range [][3]int{{0, 0, 0}, {1, 0, 1}, {1, 1, 1}} {
		key, err := s.cubeKey(0, c[0], c[1], c[2])
		if err != nil {
			t.Fatal(err)
		}
		row, err := s.table.GetAt(snap, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != 3 {
			t.Fatalf("cube %v: row has %d columns, want zkey, blob, p", c, len(row))
		}
		var cols [2]*core.Array // blob, p
		for i := range cols {
			raw, err := s.table.ResolveMaxAt(snap, row[1+i].B)
			if err != nil {
				t.Fatal(err)
			}
			if cols[i], err = core.Wrap(raw); err != nil {
				t.Fatal(err)
			}
		}
		vel, pr := cols[0], cols[1]
		nt := m / tile
		if got, want := vel.Dims(), []int{3 * tile, tile, tile, nt, nt, nt}; !slices.Equal(got, want) {
			t.Fatalf("cube %v: blob dims %v, want %v", c, got, want)
		}
		if got, want := pr.Dims(), []int{m, m, m}; !slices.Equal(got, want) {
			t.Fatalf("cube %v: p dims %v, want %v", c, got, want)
		}
		// Ghost cells at 0, 1, m-1; interior cells at 4, 7, 11.
		for _, l := range [][3]int{{0, 0, 0}, {1, 5, m - 1}, {4, 4, 4}, {7, 11, 6}, {m - 1, 0, 9}, {11, m - 1, m - 1}} {
			x, y, z := l[0], l[1], l[2]
			u, v, w, p := f.At(c[0]*8-4+x, c[1]*8-4+y, c[2]*8-4+z)
			for ch, want := range []float64{u, v, w} {
				got, err := vel.Item(3*(x%tile)+ch, y%tile, z%tile, x/tile, y/tile, z/tile)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("cube %v node (%d, %d, %d) channel %d = %g, want %g", c, x, y, z, ch, got, want)
				}
			}
			got, err := pr.Item(x, y, z)
			if err != nil {
				t.Fatal(err)
			}
			if got != p {
				t.Errorf("cube %v p element (%d, %d, %d) = %g, want %g", c, x, y, z, got, p)
			}
		}
	}
}

// seededPoints returns n points drawn from seed over [-gridN, 2·gridN)³,
// so both periodic wraps of a grid of side gridN are exercised.
func seededPoints(seed int64, n, gridN int) [][3]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][3]float64, n)
	for i := range pts {
		for d := range pts[i] {
			pts[i][d] = rng.Float64()*float64(3*gridN) - float64(gridN)
		}
	}
	return pts
}

// goldenVelocityHash is the SHA-256 of the Float64bits of every value
// TestVelocityBatchGoldenHash computes. It was taken from the service
// reading (m, m, m, 4) cubes with one pass per channel; a storage
// layout or kernel change must reproduce it bit for bit.
const goldenVelocityHash = "c34d8f97f149cbba9587f2bbd1d1df5eb4c863fc79a23273e526d9d4e42759ca"

// TestVelocityBatchGoldenHash pins the service's output bit for bit,
// in both fetch modes: 500 seeded points on a 32³ field (seed 42), cube
// 16, ghost 4, every scheme (PCHIP included).
func TestVelocityBatchGoldenHash(t *testing.T) {
	s, _ := newStore(t, 32, 16, 4)
	pts := seededPoints(1, 500, 32)
	for _, mode := range []FetchMode{WholeBlob, PartialRead} {
		h := sha256.New()
		var buf [8]byte
		for _, scheme := range []interp.Scheme{interp.Nearest, interp.Linear, interp.PCHIP, interp.Lag4, interp.Lag6, interp.Lag8} {
			out, err := s.VelocityBatch(0, pts, scheme, mode)
			if err != nil {
				t.Fatalf("%v %v: %v", mode, scheme, err)
			}
			for _, v := range out {
				for _, x := range v {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
					h.Write(buf[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenVelocityHash {
			t.Errorf("%v: output hash %s, want %s", mode, got, goldenVelocityHash)
		}
	}
}

// TestStencilChunkReads bounds the blob chunks one PartialRead stencil
// touches, averaged over a fixed set of stencil origins in 24³ blocks
// (cube 16, ghost 4). The counts are exact. With the velocity stored in
// 4³ tiles a Lag4 stencil reads about 3.6 blocks and a Lag8 stencil
// about 9.3. Row-major (3, m, m, m) cubes read 4.8 and 12.1; with p
// interleaved as a fourth channel they read 5.2 and 13.5, and with one
// channel volume after another 8.4 and 15.5.
func TestStencilChunkReads(t *testing.T) {
	s, _ := newStore(t, 32, 16, 4)
	pts := seededPoints(2, 400, 32)
	for _, tc := range []struct {
		scheme interp.Scheme
		bound  float64
	}{
		{interp.Lag4, 3.8},
		{interp.Lag8, 9.7},
	} {
		base := metric(t, s.db.Metrics(), "blob.chunk_reads")
		if _, err := s.VelocityBatch(0, pts, tc.scheme, PartialRead); err != nil {
			t.Fatal(err)
		}
		mean := float64(metric(t, s.db.Metrics(), "blob.chunk_reads")-base) / float64(len(pts))
		t.Logf("%v: %.2f chunk reads per stencil", tc.scheme, mean)
		if mean > tc.bound {
			t.Errorf("%v: %.2f chunk reads per stencil, want <= %.1f", tc.scheme, mean, tc.bound)
		}
	}
}

// TestWholeBlobReadsVelocityOnly: a WholeBlob batch over k distinct
// cubes reads exactly k velocity blobs — each cube once, and no byte of
// the p column.
func TestWholeBlobReadsVelocityOnly(t *testing.T) {
	s, _ := newStore(t, 32, 16, 4)
	// Cubes (0,0,0), (1,0,0) — also reached through the wrap at -3 — and
	// (1,1,1).
	pts := [][3]float64{{1.3, 2.7, 3.1}, {5, 5, 5}, {17.2, 3, 4}, {-3, 2.5, 2}, {20, 20, 20}}
	const k = 3
	for _, scheme := range []interp.Scheme{interp.Nearest, interp.Lag8} {
		before := metric(t, s.db.Metrics(), "blob.bytes_read")
		if _, err := s.VelocityBatch(0, pts, scheme, WholeBlob); err != nil {
			t.Fatal(err)
		}
		got := metric(t, s.db.Metrics(), "blob.bytes_read") - before
		if want := uint64(k * s.BlockBytes()); got != want {
			t.Errorf("%v: whole-blob batch read %d blob bytes, want %d (%d cubes x %d)",
				scheme, got, want, k, s.BlockBytes())
		}
	}
}

// TestWholeBlobRejectsForeignHeader: a whole-blob fetch checks the
// stored header against the store's cube shape, so a blob of another
// shape fails the batch instead of being read as velocity.
func TestWholeBlobRejectsForeignHeader(t *testing.T) {
	s, _ := newStore(t, 16, 8, 4)
	m := s.blockSide()
	// (4, m, m, m) is longer than the (3, m, m, m) velocity blob, so
	// only the header can tell them apart.
	foreign, err := core.New(core.Max, core.Float64, 4, m, m, m)
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.cubeKey(0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Close(s.table.UpdateTx(tx, key, []int{1}, []engine.Value{engine.BinaryMaxValue(foreign.Bytes())})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Velocity(0, [3]float64{1.5, 2.5, 3.5}, interp.Lag4, WholeBlob); err == nil {
		t.Error("whole-blob fetch of a (4, m, m, m) blob: nil error, want a header mismatch")
	}
	if _, err := s.Velocity(0, [3]float64{9.5, 2.5, 3.5}, interp.Lag4, WholeBlob); err != nil {
		t.Errorf("untouched cube: %v", err)
	}
}

// TestPartialReadRejectsForeignBlob: a partial read checks the stored
// blob's length against the store's, so a blob of another shape — a
// (4, m, m, m) array, or the untiled (3, m, m, m) velocity layout —
// fails the batch in both fetch modes instead of being read as tiled
// velocity.
func TestPartialReadRejectsForeignBlob(t *testing.T) {
	s, _ := newStore(t, 16, 8, 4)
	m := s.blockSide()
	key, err := s.cubeKey(0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][]int{{4, m, m, m}, {3, m, m, m}} {
		foreign, err := core.New(core.Max, core.Float64, dims...)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := s.db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Close(s.table.UpdateTx(tx, key, []int{1}, []engine.Value{engine.BinaryMaxValue(foreign.Bytes())})); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []FetchMode{PartialRead, WholeBlob} {
			if v, err := s.Velocity(0, [3]float64{1.5, 2.5, 3.5}, interp.Lag4, mode); err == nil {
				t.Errorf("%v fetch of a %v blob = %v, nil error; want an error", mode, dims, v)
			}
			if _, err := s.Velocity(0, [3]float64{9.5, 2.5, 3.5}, interp.Lag4, mode); err != nil {
				t.Errorf("%v fetch of an untouched cube: %v", mode, err)
			}
		}
	}
}

// TestFallbackTileSides: a block side 4 does not divide is tiled by 2,
// one 2 does not divide is stored untiled (t = 1). Both fetch modes
// agree bit for bit and match interp.Grid3D on the raw field, for every
// scheme the ghost width allows.
func TestFallbackTileSides(t *testing.T) {
	for _, tc := range []struct{ n, cube, ghost, side, tile int }{
		{12, 6, 4, 14, 2},
		{12, 3, 3, 9, 1},
	} {
		s, f := newStore(t, tc.n, tc.cube, tc.ghost)
		if s.blockSide() != tc.side || s.tile != tc.tile {
			t.Fatalf("cube %d ghost %d: block side %d tile %d, want %d and %d",
				tc.cube, tc.ghost, s.blockSide(), s.tile, tc.side, tc.tile)
		}
		var grids [3]*interp.Grid3D
		for d, data := range [][]float64{f.U, f.V, f.W} {
			g, err := interp.NewGrid3D(tc.n, data)
			if err != nil {
				t.Fatal(err)
			}
			grids[d] = g
		}
		pts := seededPoints(4, 60, tc.n)
		for _, scheme := range []interp.Scheme{interp.Nearest, interp.Linear, interp.PCHIP, interp.Lag4, interp.Lag6, interp.Lag8} {
			if scheme.Points()/2 > tc.ghost {
				continue
			}
			whole, err := s.VelocityBatch(0, pts, scheme, WholeBlob)
			if err != nil {
				t.Fatalf("side %d %v whole: %v", tc.side, scheme, err)
			}
			part, err := s.VelocityBatch(0, pts, scheme, PartialRead)
			if err != nil {
				t.Fatalf("side %d %v partial: %v", tc.side, scheme, err)
			}
			for i, p := range pts {
				if whole[i] != part[i] {
					t.Errorf("side %d %v at %v: whole %v, partial %v", tc.side, scheme, p, whole[i], part[i])
				}
				for d, g := range grids {
					if want := g.Sample(p[0], p[1], p[2], scheme); math.Abs(part[i][d]-want) > 1e-10 {
						t.Errorf("side %d %v at %v ch %d: %g, want %g", tc.side, scheme, p, d, part[i][d], want)
					}
				}
			}
		}
	}
}

// BenchmarkVelocityBatch times the service's CPU path: 64-point batches
// over a 32³ field (cube 16, ghost 4) whose eight blocks stay resident
// in the pool, so the op is run planning, decode and the stencil kernel.
func BenchmarkVelocityBatch(b *testing.B) {
	f, err := GenerateField(32, 24, 42)
	if err != nil {
		b.Fatal(err)
	}
	s, err := CreateStore(memDB(b), "turb", f, 16, 4)
	if err != nil {
		b.Fatal(err)
	}
	pts := seededPoints(3, 64, 32)
	for _, scheme := range []interp.Scheme{interp.Lag8, interp.Lag4} {
		for _, mode := range []FetchMode{PartialRead, WholeBlob} {
			b.Run(scheme.String()+"/"+mode.String(), func(b *testing.B) {
				if _, err := s.VelocityBatch(0, pts, scheme, mode); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.VelocityBatch(0, pts, scheme, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
