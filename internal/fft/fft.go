// Package fft is the library's FFTW substitute: complex discrete Fourier
// transforms of arbitrary length (iterative radix-2 with a Bluestein
// fallback), inverse transforms and multi-dimensional transforms over
// column-major data — the layout sqlarray blobs use, so a
// max array's payload feeds straight into these routines.
//
// Mirroring FFTW's API shape (§5.3 of the paper: "FFTW requires specially
// aligned memory buffers ... a memory copy into a pre-aligned buffer is
// necessary"), transforms are driven through Plans that own staging
// buffers; Execute copies input into the plan's buffer, transforms, and
// copies out.
package fft

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// errSize reports an invalid transform size.
var errSize = errors.New("fft: invalid transform size")

// Direction selects forward (engineering sign convention, e^{-2πi kn/N})
// or inverse (with 1/N normalization).
type Direction int

// Transform directions.
const (
	Forward Direction = -1
	Inverse Direction = +1
)

// Plan holds precomputed tables for a fixed-size 1-D complex transform.
type Plan struct {
	n       int
	dir     Direction
	pow2    bool
	rev     []int          // bit-reversal permutation (pow2)
	tw      []complex128   // stage twiddles (pow2)
	blue    *bluesteinPlan // arbitrary-n fallback
	staging []complex128   // the "aligned buffer" work area
}

// NewPlan prepares a transform of length n in the given direction.
func NewPlan(n int, dir Direction) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d", errSize, n)
	}
	p := &Plan{n: n, dir: dir, staging: make([]complex128, n)}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.rev = bitRevTable(n)
		p.tw = twiddles(n, dir)
		return p, nil
	}
	p.blue = newBluestein(n, dir)
	return p, nil
}

// Execute transforms src into dst (both length n; they may alias). The
// input is staged through the plan's internal buffer, mimicking FFTW's
// aligned-buffer copy.
func (p *Plan) Execute(dst, src []complex128) error {
	if len(src) != p.n || len(dst) != p.n {
		return fmt.Errorf("%w: plan is %d, buffers are %d/%d", errSize, p.n, len(src), len(dst))
	}
	copy(p.staging, src)
	if p.pow2 {
		p.radix2(p.staging)
	} else {
		p.blue.transform(p.staging)
	}
	if p.dir == Inverse {
		inv := complex(1/float64(p.n), 0)
		for i := range p.staging {
			p.staging[i] *= inv
		}
	}
	copy(dst, p.staging)
	return nil
}

// bitRevTable computes the bit-reversal permutation for size n (a power
// of two).
func bitRevTable(n int) []int {
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	rev := make([]int, n)
	for i := range rev {
		rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	return rev
}

// twiddles precomputes e^{dir·2πi k/n} for all stage sizes, packed
// contiguously: sizes 2,4,8,...,n each contribute size/2 factors.
func twiddles(n int, dir Direction) []complex128 {
	tw := make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		ang := float64(dir) * 2 * math.Pi / float64(size)
		for k := 0; k < size/2; k++ {
			s, c := math.Sincos(ang * float64(k))
			tw = append(tw, complex(c, s))
		}
	}
	return tw
}

// radix2 runs the iterative Cooley-Tukey butterfly over a (bit-reversed)
// buffer in place.
func (p *Plan) radix2(a []complex128) {
	n := p.n
	for i, r := range p.rev {
		if i < r {
			a[i], a[r] = a[r], a[i]
		}
	}
	twOff := 0
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		tw := p.tw[twOff : twOff+half]
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * tw[k]
				a[start+k] = u + v
				a[start+k+half] = u - v
			}
		}
		twOff += half
	}
}

// bluesteinPlan implements the chirp-z trick: an arbitrary-n DFT as a
// cyclic convolution carried by a power-of-two FFT of length >= 2n-1.
type bluesteinPlan struct {
	n    int
	m    int // power-of-two convolution size
	dir  Direction
	w    []complex128 // chirp factors e^{dir·πi k²/n}
	bHat []complex128 // FFT of the chirp kernel
	fwd  *Plan
	inv  *Plan
	work []complex128
}

func newBluestein(n int, dir Direction) *bluesteinPlan {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	bp := &bluesteinPlan{n: n, m: m, dir: dir}
	bp.w = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n keeps the angle accurate for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := float64(dir) * math.Pi * float64(kk) / float64(n)
		s, c := math.Sincos(ang)
		bp.w[k] = complex(c, s)
	}
	b := make([]complex128, m)
	b[0] = bp.w[0]
	for k := 1; k < n; k++ {
		conj := complex(real(bp.w[k]), -imag(bp.w[k]))
		b[k] = conj
		b[m-k] = conj
	}
	bp.fwd, _ = NewPlan(m, Forward)
	bp.inv, _ = NewPlan(m, Inverse)
	bp.bHat = make([]complex128, m)
	_ = bp.fwd.Execute(bp.bHat, b)
	bp.work = make([]complex128, m)
	return bp
}

func (bp *bluesteinPlan) transform(a []complex128) {
	n := bp.n
	work := bp.work
	for i := range work {
		work[i] = 0
	}
	for k := 0; k < n; k++ {
		work[k] = a[k] * bp.w[k]
	}
	_ = bp.fwd.Execute(work, work)
	for i := range work {
		work[i] *= bp.bHat[i]
	}
	_ = bp.inv.Execute(work, work)
	// The length-m inverse already divided by m; undo nothing further.
	for k := 0; k < n; k++ {
		a[k] = work[k] * bp.w[k]
	}
}

// dftNaive is the O(n²) reference transform used by tests.
func dftNaive(src []complex128, dir Direction) []complex128 {
	n := len(src)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := float64(dir) * 2 * math.Pi * float64(k*j) / float64(n)
			s, c := math.Sincos(ang)
			sum += src[j] * complex(c, s)
		}
		out[k] = sum
	}
	if dir == Inverse {
		for k := range out {
			out[k] /= complex(float64(n), 0)
		}
	}
	return out
}
