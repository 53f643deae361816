package nbody

import (
	"math"
	"sort"
	"testing"

	"sqlarray/internal/engine"
	"sqlarray/internal/octree"
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

func genSnap(t *testing.T, n int, halos int) *Snapshot {
	t.Helper()
	s, err := GenerateSnapshot(GenParams{
		N: n, NHalos: halos, HaloFrac: 0.6, HaloR: 0.015, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateSnapshotValidation(t *testing.T) {
	if _, err := GenerateSnapshot(GenParams{N: 0}); err == nil {
		t.Error("zero particles must fail")
	}
	if _, err := GenerateSnapshot(GenParams{N: 10, HaloFrac: 1.5}); err == nil {
		t.Error("bad halo fraction must fail")
	}
	if _, err := GenerateSnapshot(GenParams{N: 10, NHalos: -1}); err == nil {
		t.Error("negative halos must fail")
	}
	s := genSnap(t, 500, 3)
	for _, p := range s.Particles {
		for d := 0; d < 3; d++ {
			if p.Pos[d] < 0 || p.Pos[d] >= 1 {
				t.Fatalf("particle outside unit box: %v", p.Pos)
			}
		}
	}
}

func TestEvolvePreservesIDsAndWraps(t *testing.T) {
	s := genSnap(t, 100, 2)
	next := Evolve(s, 0.01)
	if next.Step != s.Step+1 || len(next.Particles) != 100 {
		t.Fatal("evolve metadata wrong")
	}
	for i := range next.Particles {
		if next.Particles[i].ID != s.Particles[i].ID {
			t.Fatal("IDs must be stable across snapshots")
		}
		for d := 0; d < 3; d++ {
			if next.Particles[i].Pos[d] < 0 || next.Particles[i].Pos[d] >= 1 {
				t.Fatal("evolved position outside box")
			}
		}
	}
}

func TestFOFMatchesNaive(t *testing.T) {
	s := genSnap(t, 600, 4)
	fast, err := FOF(s.Particles, 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	slow := fofNaive(s.Particles, 0.02, 5)
	if len(fast) != len(slow) {
		t.Fatalf("halo counts differ: %d vs %d", len(fast), len(slow))
	}
	for i := range fast {
		if len(fast[i].Members) != len(slow[i].Members) {
			t.Fatalf("halo %d sizes differ", i)
		}
		for j := range fast[i].Members {
			if fast[i].Members[j] != slow[i].Members[j] {
				t.Fatalf("halo %d member %d differs", i, j)
			}
		}
	}
	if len(fast) == 0 {
		t.Error("clustered snapshot should yield halos")
	}
}

func TestFOFValidation(t *testing.T) {
	s := genSnap(t, 50, 1)
	if _, err := FOF(s.Particles, 0, 5); err == nil {
		t.Error("zero linking length must fail")
	}
	if _, err := FOF(s.Particles, 0.6, 5); err == nil {
		t.Error("half-box linking length must fail")
	}
	if h, err := FOF(nil, 0.1, 5); err != nil || h != nil {
		t.Errorf("empty input: %v, %v", h, err)
	}
}

func TestFOFPeriodicLinking(t *testing.T) {
	// A pair straddling the box boundary must link.
	parts := []Particle{
		{ID: 1, Pos: [3]float64{0.001, 0.5, 0.5}},
		{ID: 2, Pos: [3]float64{0.999, 0.5, 0.5}},
	}
	halos, err := FOF(parts, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 1 || len(halos[0].Members) != 2 {
		t.Fatalf("boundary pair not linked: %+v", halos)
	}
	// The periodic centroid sits near the boundary, not at 0.5.
	cx := halos[0].Center[0]
	if cx > 0.1 && cx < 0.9 {
		t.Errorf("periodic centroid = %g, want near 0 or 1", cx)
	}
}

func TestMergerLinking(t *testing.T) {
	s0 := genSnap(t, 2000, 5)
	s1 := Evolve(s0, 0.005)
	h0, err := FOF(s0.Particles, 0.02, 10)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := FOF(s1.Particles, 0.02, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(h0) == 0 || len(h1) == 0 {
		t.Skip("no halos formed; generator parameters too diffuse")
	}
	links := LinkMergers(h0, h1)
	linked := 0
	for _, l := range links {
		if l.ProgenitorIdx >= 0 {
			linked++
			// The progenitor must actually share particles.
			if l.Shared == 0 {
				t.Error("link with zero shared particles")
			}
		}
	}
	if linked < len(h1)/2 {
		t.Errorf("only %d of %d halos linked to progenitors", linked, len(h1))
	}
}

func TestCICMassConservation(t *testing.T) {
	s := genSnap(t, 3000, 4)
	rho, err := cicDensity(s.Particles, 16)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range rho {
		total += v
	}
	if math.Abs(total-3000) > 1e-6 {
		t.Errorf("CIC total mass = %g, want 3000", total)
	}
	if _, err := cicDensity(s.Particles, 1); err == nil {
		t.Error("1-cell grid must fail")
	}
}

func TestCICUniformLatticeIsFlat(t *testing.T) {
	// Particles exactly at cell centres deposit all mass in one cell.
	n := 8
	parts := make([]Particle, 0, n*n*n)
	id := int64(0)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				parts = append(parts, Particle{
					ID: id,
					Pos: [3]float64{
						(float64(x) + 0.5) / float64(n),
						(float64(y) + 0.5) / float64(n),
						(float64(z) + 0.5) / float64(n),
					},
				})
				id++
			}
		}
	}
	rho, err := cicDensity(parts, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rho {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("cell %d density = %g, want 1", i, v)
		}
	}
}

func TestPowerSpectrumClusteringSignal(t *testing.T) {
	clustered := genSnap(t, 4000, 4)
	uniform, err := GenerateSnapshot(GenParams{N: 4000, NHalos: 0, HaloFrac: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := PowerSpectrum(clustered.Particles, 16)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := PowerSpectrum(uniform.Particles, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Clustered matter has far more large-scale (low-k) power.
	var lowC, lowU float64
	for k := 1; k <= 4; k++ {
		lowC += pc[k]
		lowU += pu[k]
	}
	if lowC < 5*lowU {
		t.Errorf("clustered low-k power %g not well above uniform %g", lowC, lowU)
	}
}

func TestTwoPointCorrelation(t *testing.T) {
	clustered := genSnap(t, 3000, 4)
	bins := []float64{0.01, 0.02, 0.05, 0.1, 0.2}
	xi, err := TwoPointCorrelation(clustered.Particles, bins)
	if err != nil {
		t.Fatal(err)
	}
	if xi[0] < 1 {
		t.Errorf("small-scale clustering xi[0] = %g, want >> 0", xi[0])
	}
	// A uniform distribution is consistent with zero.
	uniform, _ := GenerateSnapshot(GenParams{N: 3000, NHalos: 0, Seed: 9})
	xiU, err := TwoPointCorrelation(uniform.Particles, bins)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range xiU {
		if math.Abs(v) > 0.5 {
			t.Errorf("uniform xi[%d] = %g, want ~0", k, v)
		}
	}
	// Validation.
	if _, err := TwoPointCorrelation(clustered.Particles, nil); err == nil {
		t.Error("no bins must fail")
	}
	if _, err := TwoPointCorrelation(clustered.Particles, []float64{0.2, 0.1}); err == nil {
		t.Error("descending bins must fail")
	}
	if _, err := TwoPointCorrelation(clustered.Particles, []float64{0.6}); err == nil {
		t.Error("over-half-box radius must fail")
	}
}

func TestLightcone(t *testing.T) {
	s0 := genSnap(t, 3000, 3)
	s1 := Evolve(s0, 0.01)
	s2 := Evolve(s1, 0.01)
	cone := octree.Cone{
		Apex:      [3]float64{0.02, 0.02, 0.02},
		Axis:      [3]float64{1, 1, 1},
		HalfAngle: 0.5,
	}
	edges := []float64{0.05, 0.3, 0.6, 0.95}
	pts, err := Lightcone([]*Snapshot{s2, s1, s0}, edges, cone, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty light-cone")
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Dist < pts[j].Dist }) {
		t.Error("light-cone not sorted by distance")
	}
	for _, p := range pts {
		// Shell/snapshot correspondence: nearest shell from s2 (step 2).
		var wantStep int
		switch {
		case p.Dist < 0.3:
			wantStep = 2
		case p.Dist < 0.6:
			wantStep = 1
		default:
			wantStep = 0
		}
		if p.Step != wantStep {
			t.Fatalf("particle at %g from step %d, want %d", p.Dist, p.Step, wantStep)
		}
		if p.Dist < 0.05 || p.Dist >= 0.95 {
			t.Fatalf("particle outside shells at %g", p.Dist)
		}
	}
	// Redshift grows with distance on average (Hubble flow dominates).
	if pts[0].Redshift > pts[len(pts)-1].Redshift {
		t.Error("redshift not increasing outward")
	}
	// Validation.
	if _, err := Lightcone([]*Snapshot{s0}, []float64{0, 1, 2}, cone, 1); err == nil {
		t.Error("edge/snapshot mismatch must fail")
	}
	if _, err := Lightcone([]*Snapshot{s0}, []float64{0.5, 0.1}, cone, 1); err == nil {
		t.Error("empty shell must fail")
	}
}

func TestBucketStoreRoundtrip(t *testing.T) {
	db := memDB(t)
	s := genSnap(t, 5000, 4)
	bs, err := CreateBucketStore(db, "parts", s, 512)
	if err != nil {
		t.Fatal(err)
	}
	back, err := bs.LoadSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Particles) != 5000 {
		t.Fatalf("loaded %d particles", len(back.Particles))
	}
	// Same particle set (order differs: z-curve vs ID).
	orig := map[int64]Particle{}
	for _, p := range s.Particles {
		orig[p.ID] = p
	}
	for _, p := range back.Particles {
		w, ok := orig[p.ID]
		if !ok {
			t.Fatalf("unknown particle %d", p.ID)
		}
		for d := 0; d < 3; d++ {
			if p.Pos[d] != w.Pos[d] || p.Vel[d] != w.Vel[d] {
				t.Fatalf("particle %d data mismatch", p.ID)
			}
		}
	}
}

func TestBucketStoreKeepsParticlesThatShareAnID(t *testing.T) {
	db := memDB(t)
	s := &Snapshot{Particles: []Particle{
		{ID: 7, Pos: [3]float64{0.1, 0.2, 0.3}, Vel: [3]float64{1, 2, 3}},
		{ID: 7, Pos: [3]float64{0.9, 0.8, 0.7}, Vel: [3]float64{4, 5, 6}},
		{ID: 8, Pos: [3]float64{0.5, 0.5, 0.5}, Vel: [3]float64{7, 8, 9}},
	}}
	bs, err := CreateBucketStore(db, "parts", s, 1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := bs.LoadSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Particles) != len(s.Particles) {
		t.Fatalf("loaded %d particles, want %d", len(back.Particles), len(s.Particles))
	}
	for _, want := range s.Particles {
		found := false
		for _, got := range back.Particles {
			found = found || got == want
		}
		if !found {
			t.Errorf("particle %+v missing from %+v", want, back.Particles)
		}
	}
}

func TestRowStoreRowsMatchSnapshot(t *testing.T) {
	db := memDB(t)
	s := genSnap(t, 2000, 2)
	s.Step = 3
	rs, err := CreateRowStore(db, "rows", s)
	if err != nil {
		t.Fatal(err)
	}
	if n := rs.Table().Rows(); n != int64(len(s.Particles)) {
		t.Fatalf("row store rows = %d, want %d", n, len(s.Particles))
	}
	for _, p := range s.Particles {
		got, err := rs.Table().Get(int64(s.Step)<<44 | p.ID)
		if err != nil {
			t.Fatalf("particle %d: %v", p.ID, err)
		}
		want := []float64{p.Pos[0], p.Pos[1], p.Pos[2], p.Vel[0], p.Vel[1], p.Vel[2]}
		for i, w := range want {
			if got[1+i].F != w {
				t.Fatalf("particle %d column %d = %v, want %v", p.ID, 1+i, got[1+i].F, w)
			}
		}
	}
}

func TestBucketVsRowStorage(t *testing.T) {
	// The §2.3 argument: bucketized arrays need orders of magnitude
	// fewer rows than row-per-particle.
	db := memDB(t)
	s := genSnap(t, 8000, 4)
	bs, err := CreateBucketStore(db, "buckets", s, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := CreateRowStore(db, "rows", s)
	if err != nil {
		t.Fatal(err)
	}
	bRows := bs.Table().Rows()
	rRows := rs.Table().Rows()
	if rRows != 8000 {
		t.Fatalf("row store rows = %d", rRows)
	}
	if bRows*100 > rRows {
		t.Errorf("bucket rows %d not <<< particle rows %d", bRows, rRows)
	}
	bStats, err := bs.Table().Stats()
	if err != nil {
		t.Fatal(err)
	}
	rStats, err := rs.Table().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if bStats.LeafPages >= rStats.LeafPages {
		t.Errorf("bucket leaf pages %d >= row leaf pages %d (index should shrink)",
			bStats.LeafPages, rStats.LeafPages)
	}
	// Multi-snapshot keys do not collide.
	s1 := Evolve(s, 0.01)
	if err := bs.AddSnapshot(s1, 1000); err != nil {
		t.Fatal(err)
	}
	back1, err := bs.LoadSnapshot(1)
	if err != nil || len(back1.Particles) != 8000 {
		t.Fatalf("snapshot 1 load: %d, %v", len(back1.Particles), err)
	}
	back0, err := bs.LoadSnapshot(0)
	if err != nil || len(back0.Particles) != 8000 {
		t.Fatalf("snapshot 0 reload: %d, %v", len(back0.Particles), err)
	}
}
