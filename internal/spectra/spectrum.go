// Package spectra reproduces the paper's §2.2 use case: an astronomical
// spectrum archive built on the array type. A spectrum is a set of
// parallel vectors (wavelength bins, flux, flux error, integer flags);
// the processing steps are the ones the paper enumerates — integration
// and normalization, flux-conserving resampling to a common grid,
// composite averaging, PCA over a spectrum set, masked least-squares
// expansion on the PCA basis (plain dot products are wrong in the
// presence of flagged pixels), and kd-tree similar-spectrum search over
// the expansion coefficients.
package spectra

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Spectrum is one observation. Wave must be finite and strictly
// ascending; the scale is typically logarithmic and differs between
// observations ("the wavelength scale can change from observation to
// observation ... it is necessary to store the wavelength vector of each
// spectrum separately").
type Spectrum struct {
	ID    int64
	Z     float64 // redshift, the grouping attribute for composites
	Wave  []float64
	Flux  []float64
	Err   []float64
	Flags []int64 // nonzero = bad pixel, masked from fits
}

// errGrid reports an invalid wavelength grid.
var errGrid = errors.New("spectra: bad wavelength grid")

// Validate checks the parallel vectors.
func (s *Spectrum) Validate() error {
	n := len(s.Wave)
	if n < 2 {
		return fmt.Errorf("%w: %d bins", errGrid, n)
	}
	if len(s.Flux) != n || len(s.Err) != n || len(s.Flags) != n {
		return fmt.Errorf("%w: vector lengths %d/%d/%d/%d",
			errGrid, n, len(s.Flux), len(s.Err), len(s.Flags))
	}
	return checkGrid("grid", s.Wave)
}

// checkGrid reports errGrid unless every wavelength of w is finite and
// strictly greater than the one before it. Finiteness is checked first
// and on its own: every comparison with NaN is false, so an ascending
// test alone lets a NaN through.
func checkGrid(what string, w []float64) error {
	for i, x := range w {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: %s bin %d is %g", errGrid, what, i, x)
		}
		if i > 0 && x <= w[i-1] {
			return fmt.Errorf("%w: %s not ascending at bin %d", errGrid, what, i)
		}
	}
	return nil
}

// Clone deep-copies the spectrum.
func (s *Spectrum) Clone() *Spectrum {
	return &Spectrum{
		ID: s.ID, Z: s.Z,
		Wave:  append([]float64(nil), s.Wave...),
		Flux:  append([]float64(nil), s.Flux...),
		Err:   append([]float64(nil), s.Err...),
		Flags: append([]int64(nil), s.Flags...),
	}
}

// LogGrid builds an n-bin logarithmic wavelength grid over [lo, hi].
func LogGrid(lo, hi float64, n int) ([]float64, error) {
	if n < 2 || lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("%w: [%g,%g] x %d", errGrid, lo, hi, n)
	}
	out := make([]float64, n)
	step := math.Log(hi/lo) / float64(n-1)
	for i := range out {
		out[i] = lo * math.Exp(float64(i)*step)
	}
	return out, nil
}

// SynthesisParams controls Synthesize.
type SynthesisParams struct {
	Bins     int
	LoWave   float64 // rest-frame grid start
	HiWave   float64
	Z        float64 // redshift applied to the grid
	SNR      float64 // signal-to-noise of the continuum
	BadFrac  float64 // fraction of pixels flagged bad
	LineSeed int64
}

// Synthesize generates a galaxy-like spectrum: a smooth continuum, a
// fixed set of emission/absorption lines redshifted by z, Gaussian
// noise at the requested SNR, and randomly flagged bad pixels. All
// spectra share rest-frame lines so PCA has real structure to find.
func Synthesize(rng *rand.Rand, p SynthesisParams) (*Spectrum, error) {
	if p.Bins < 8 {
		return nil, fmt.Errorf("%w: %d bins", errGrid, p.Bins)
	}
	if p.SNR <= 0 {
		p.SNR = 20
	}
	grid, err := LogGrid(p.LoWave*(1+p.Z), p.HiWave*(1+p.Z), p.Bins)
	if err != nil {
		return nil, err
	}
	// Rest-frame line list (wavelength, amplitude, width) — loosely the
	// strong optical features of galaxy spectra.
	lines := []struct{ w, a, sig float64 }{
		{4102, -0.3, 8}, {4341, -0.35, 8}, {4861, -0.5, 9}, // Balmer absorption
		{5007, 0.9, 6},   // [OIII] emission
		{5175, -0.4, 12}, // Mg b
		{5893, -0.3, 10}, // Na D
		{6563, 1.4, 7},   // H-alpha emission
	}
	s := &Spectrum{
		Z:     p.Z,
		Wave:  grid,
		Flux:  make([]float64, p.Bins),
		Err:   make([]float64, p.Bins),
		Flags: make([]int64, p.Bins),
	}
	// Per-line strengths drawn from the LineSeed make each seed a
	// distinct "object type" with its own line-ratio signature.
	lineRng := rand.New(rand.NewSource(p.LineSeed))
	strengths := make([]float64, len(lines))
	for i := range strengths {
		strengths[i] = 0.3 + 1.4*lineRng.Float64()
	}
	for i, w := range grid {
		rest := w / (1 + p.Z)
		// Continuum: a gentle power law.
		cont := math.Pow(rest/5000.0, -0.5)
		f := cont
		for li, ln := range lines {
			d := (rest - ln.w) / ln.sig
			f += strengths[li] * ln.a * cont * math.Exp(-0.5*d*d)
		}
		sigma := cont / p.SNR
		s.Flux[i] = f + rng.NormFloat64()*sigma
		s.Err[i] = sigma
		if rng.Float64() < p.BadFrac {
			s.Flags[i] = 1
			s.Flux[i] += rng.NormFloat64() * 10 * cont // cosmic-ray hit
		}
	}
	return s, nil
}

// Integrate returns the integrated flux over [lo, hi] using
// trapezoidal integration on the (possibly non-linear) grid.
func (s *Spectrum) Integrate(lo, hi float64) float64 {
	total := 0.0
	for i := 1; i < len(s.Wave); i++ {
		w0, w1 := s.Wave[i-1], s.Wave[i]
		if w1 < lo || w0 > hi {
			continue
		}
		a, b := math.Max(w0, lo), math.Min(w1, hi)
		if b <= a {
			continue
		}
		// Linear flux between samples.
		t0 := (a - w0) / (w1 - w0)
		t1 := (b - w0) / (w1 - w0)
		f0 := s.Flux[i-1] + t0*(s.Flux[i]-s.Flux[i-1])
		f1 := s.Flux[i-1] + t1*(s.Flux[i]-s.Flux[i-1])
		total += 0.5 * (f0 + f1) * (b - a)
	}
	return total
}

// Normalize scales the flux (and error) so the integrated flux over
// [lo, hi] becomes 1 (§2.2: "Normalization of the flux vector which
// requires integration of the flux in given wavelength ranges and
// multiplication by scalar").
func (s *Spectrum) Normalize(lo, hi float64) error {
	total := s.Integrate(lo, hi)
	if total == 0 || math.IsNaN(total) {
		return fmt.Errorf("spectra: zero integrated flux in [%g,%g]", lo, hi)
	}
	inv := 1 / total
	for i := range s.Flux {
		s.Flux[i] *= inv
		s.Err[i] *= math.Abs(inv)
	}
	return nil
}

// Resample maps the spectrum onto a new wavelength grid conserving
// integrated flux ("the resampling should be done such a way that the
// integrated flux in any wavelength range remains the same"). Bin edges
// are the midpoints between grid centers; each target bin receives the
// integral of the (piecewise-constant) source flux density over its
// extent, divided by its width. Flags propagate: a target bin
// overlapping any flagged source bin is flagged; errors combine in
// quadrature weighted by overlap. Both grids ascend, so one sweep over
// the source bins serves every target bin.
func Resample(s *Spectrum, newWave []float64) (*Spectrum, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(newWave) < 2 {
		return nil, fmt.Errorf("%w: target grid of %d bins", errGrid, len(newWave))
	}
	if err := checkGrid("target grid", newWave); err != nil {
		return nil, err
	}
	n := len(s.Wave)
	srcEdges := binEdges(s.Wave)
	dstEdges := binEdges(newWave)
	flux, errs, flags := s.Flux[:n], s.Err[:n], s.Flags[:n]
	out := &Spectrum{
		ID: s.ID, Z: s.Z,
		Wave:  append([]float64(nil), newWave...),
		Flux:  make([]float64, len(newWave)),
		Err:   make([]float64, len(newWave)),
		Flags: make([]int64, len(newWave)),
	}
	// i0 is the last source bin whose lower edge lies below the target
	// bin's (bin 0 when none does): the first that can overlap it. The
	// target edges ascend, so i0 only moves forward.
	i0 := 0
	for j := range newWave {
		lo, hi := dstEdges[j], dstEdges[j+1]
		width := hi - lo
		for i0 < n && srcEdges[i0+1] < lo {
			i0++
		}
		var fluxInt, errQuad, overlapTotal float64
		flagged := false
		for i := i0; i < n; i++ {
			slo, shi := srcEdges[i], srcEdges[i+1]
			if slo >= hi {
				break
			}
			if hi < shi {
				shi = hi
			}
			if lo > slo {
				slo = lo
			}
			ov := shi - slo
			if ov <= 0 {
				continue
			}
			fluxInt += flux[i] * ov
			e := errs[i] * ov
			errQuad += e * e
			overlapTotal += ov
			if flags[i] != 0 {
				flagged = true
			}
		}
		if overlapTotal == 0 {
			out.Flags[j] = 2 // no coverage
			continue
		}
		// Flux density averaged over the covered extent keeps the
		// integral identical where coverage is complete.
		out.Flux[j] = fluxInt / width
		out.Err[j] = math.Sqrt(errQuad) / width
		if flagged {
			out.Flags[j] = 1
		}
		if overlapTotal < width*(1-1e-9) {
			out.Flags[j] |= 2 // partially uncovered
		}
	}
	return out, nil
}

// binEdges returns n+1 edges: midpoints between centers, with the end
// bins mirrored.
func binEdges(centers []float64) []float64 {
	n := len(centers)
	edges := make([]float64, n+1)
	for i := 1; i < n; i++ {
		edges[i] = 0.5 * (centers[i-1] + centers[i])
	}
	edges[0] = centers[0] - (edges[1] - centers[0])
	edges[n] = centers[n-1] + (centers[n-1] - edges[n-1])
	return edges
}

// composite averages a set of spectra on a common grid, ignoring
// flagged bins, propagating errors as the error of the mean — the
// aggregate behind "spectra can be averaged to get composites with high
// signal to noise ratio", groupable by redshift.
func composite(specs []*Spectrum, grid []float64) (*Spectrum, error) {
	if len(specs) == 0 {
		return nil, errors.New("spectra: empty composite")
	}
	n := len(grid)
	sum := make([]float64, n)
	wsum := make([]float64, n)
	count := make([]int64, n)
	for _, s := range specs {
		r, err := Resample(s, grid)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if r.Flags[i] != 0 || r.Err[i] <= 0 {
				continue
			}
			w := 1 / (r.Err[i] * r.Err[i]) // inverse-variance weight
			sum[i] += w * r.Flux[i]
			wsum[i] += w
			count[i]++
		}
	}
	out := &Spectrum{
		Wave:  append([]float64(nil), grid...),
		Flux:  make([]float64, n),
		Err:   make([]float64, n),
		Flags: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		if wsum[i] == 0 {
			out.Flags[i] = 1
			continue
		}
		out.Flux[i] = sum[i] / wsum[i]
		out.Err[i] = math.Sqrt(1 / wsum[i])
	}
	return out, nil
}

// CompositeByRedshift groups spectra into redshift bins of width dz and
// composites each group — the paper's "group spectra by certain
// parameters (for example redshift of the observed galaxies)" with a
// simple SQL query.
func CompositeByRedshift(specs []*Spectrum, grid []float64, dz float64) (map[int]*Spectrum, error) {
	if dz <= 0 {
		return nil, fmt.Errorf("spectra: bad redshift bin %g", dz)
	}
	groups := map[int][]*Spectrum{}
	for _, s := range specs {
		bin := int(math.Floor(s.Z / dz))
		groups[bin] = append(groups[bin], s)
	}
	out := make(map[int]*Spectrum, len(groups))
	for bin, group := range groups {
		c, err := composite(group, grid)
		if err != nil {
			return nil, err
		}
		out[bin] = c
	}
	return out, nil
}
