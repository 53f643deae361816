package spectra

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// resampleSearch is Resample as it was written first: each target bin
// finds its first source bin by binary search on the source edges, and
// overlaps use math.Min/math.Max. It is the reference the forward sweep
// must reproduce bit for bit.
func resampleSearch(s *Spectrum, newWave []float64) (*Spectrum, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(newWave) < 2 {
		return nil, errGrid
	}
	if err := checkGrid("target grid", newWave); err != nil {
		return nil, err
	}
	srcEdges := binEdges(s.Wave)
	dstEdges := binEdges(newWave)
	out := &Spectrum{
		ID: s.ID, Z: s.Z,
		Wave:  append([]float64(nil), newWave...),
		Flux:  make([]float64, len(newWave)),
		Err:   make([]float64, len(newWave)),
		Flags: make([]int64, len(newWave)),
	}
	for j := 0; j < len(newWave); j++ {
		lo, hi := dstEdges[j], dstEdges[j+1]
		width := hi - lo
		i0 := sort.SearchFloat64s(srcEdges, lo) - 1
		if i0 < 0 {
			i0 = 0
		}
		var fluxInt, errQuad, overlapTotal float64
		flagged := false
		covered := 0.0
		for i := i0; i < len(s.Wave); i++ {
			slo, shi := srcEdges[i], srcEdges[i+1]
			if slo >= hi {
				break
			}
			ov := math.Min(shi, hi) - math.Max(slo, lo)
			if ov <= 0 {
				continue
			}
			fluxInt += s.Flux[i] * ov
			e := s.Err[i] * ov
			errQuad += e * e
			overlapTotal += ov
			covered += ov
			if s.Flags[i] != 0 {
				flagged = true
			}
		}
		if overlapTotal == 0 {
			out.Flags[j] = 2
			continue
		}
		out.Flux[j] = fluxInt / width
		out.Err[j] = math.Sqrt(errQuad) / width
		if flagged {
			out.Flags[j] = 1
		}
		if covered < width*(1-1e-9) {
			out.Flags[j] |= 2
		}
	}
	return out, nil
}

// randomGrid returns n strictly ascending wavelengths from start with
// irregular steps of 0.05–1.05 maxStep, a tenth of them a thousand
// times smaller.
func randomGrid(rng *rand.Rand, n int, start, maxStep float64) []float64 {
	g := make([]float64, n)
	w := start
	for i := range g {
		g[i] = w
		step := maxStep * (0.05 + rng.Float64())
		if rng.Intn(10) == 0 {
			step *= 1e-3
		}
		w += step
	}
	return g
}

// TestResampleMatchesSearchReference holds Resample's forward sweep to
// the binary-search reference on seeded random source grids of 2–4000
// bins with flagged bins, onto target grids that start before, end
// after, lie inside or miss the source coverage: Flux and Err bit for
// bit, Flags exactly.
func TestResampleMatchesSearchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var seen [4]int // target bins per flag value: clean, flagged, uncovered, both
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(3999)
		if trial < 4 {
			n = []int{2, 3, 4000, 4000}[trial]
		}
		src := &Spectrum{
			ID: int64(trial), Z: rng.Float64(),
			Wave:  randomGrid(rng, n, 3000+1000*rng.Float64(), 5*rng.Float64()+0.01),
			Flux:  make([]float64, n),
			Err:   make([]float64, n),
			Flags: make([]int64, n),
		}
		for i := 0; i < n; i++ {
			src.Flux[i] = rng.NormFloat64()
			src.Err[i] = rng.Float64()
			if rng.Intn(20) == 0 {
				src.Flags[i] = 1 + int64(rng.Intn(3))
			}
		}
		first, last := src.Wave[0], src.Wave[n-1]
		span := last - first
		m := 2 + rng.Intn(3999)
		var start float64
		switch trial % 4 {
		case 0: // starts before the source
			start = first - span*rng.Float64()
		case 1: // starts inside it, mostly ending after it
			start = first + span*rng.Float64()
		case 2: // inside it
			start = first + 0.25*span*rng.Float64()
		case 3: // anywhere, past either end included
			start = first + span*(3*rng.Float64()-1)
		}
		step := span * (0.01 + 2*rng.Float64()) / float64(m)
		if trial%4 == 2 {
			step = 0.5 * span / float64(m) // ends before the source does
		}
		grid := randomGrid(rng, m, start, step)

		got, err := Resample(src, grid)
		if err != nil {
			t.Fatal(err)
		}
		want, err := resampleSearch(src, grid)
		if err != nil {
			t.Fatal(err)
		}
		for j := range grid {
			if got.Wave[j] != want.Wave[j] ||
				math.Float64bits(got.Flux[j]) != math.Float64bits(want.Flux[j]) ||
				math.Float64bits(got.Err[j]) != math.Float64bits(want.Err[j]) ||
				got.Flags[j] != want.Flags[j] {
				t.Fatalf("trial %d (%d -> %d bins), target bin %d: got (%v, %v, %d), want (%v, %v, %d)",
					trial, n, m, j, got.Flux[j], got.Err[j], got.Flags[j], want.Flux[j], want.Err[j], want.Flags[j])
			}
			seen[got.Flags[j]]++
		}
	}
	for f, c := range seen {
		if c == 0 {
			t.Errorf("no target bin came out with flags %d: the grids miss a case", f)
		}
	}
}
