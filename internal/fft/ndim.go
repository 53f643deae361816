package fft

import "fmt"

// FFTN transforms a column-major multi-dimensional complex array along
// every axis. data has length prod(dims); dims[0] varies fastest,
// matching the sqlarray blob layout. The transform happens in place.
func FFTN(data []complex128, dims []int, dir Direction) error {
	total := 1
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("%w: dimension %d", errSize, d)
		}
		total *= d
	}
	if len(data) != total {
		return fmt.Errorf("%w: %d elements for dims %v", errSize, len(data), dims)
	}
	for axis := range dims {
		if err := fftAxis(data, dims, axis, dir); err != nil {
			return err
		}
	}
	return nil
}

// fftAxis runs length-dims[axis] transforms along one axis of a
// column-major array. Lines along the axis have stride inner =
// prod(dims[:axis]); there are inner*outer of them.
func fftAxis(data []complex128, dims []int, axis int, dir Direction) error {
	n := dims[axis]
	plan, err := NewPlan(n, dir)
	if err != nil {
		return err
	}
	inner := 1
	for k := 0; k < axis; k++ {
		inner *= dims[k]
	}
	outer := len(data) / (inner * n)
	line := make([]complex128, n)
	for o := 0; o < outer; o++ {
		base := o * inner * n
		for in := 0; in < inner; in++ {
			// Gather the strided line, transform, scatter back.
			for j := 0; j < n; j++ {
				line[j] = data[base+in+j*inner]
			}
			if err := plan.Execute(line, line); err != nil {
				return err
			}
			for j := 0; j < n; j++ {
				data[base+in+j*inner] = line[j]
			}
		}
	}
	return nil
}

// PowerSpectrum3D bins |F(k)|² of a cubic field into spherical shells of
// integer |k|, returning P(k) for k = 0..n/2. The field must already be
// Fourier transformed (length n³, column-major cube of side n). This is
// the final step of the paper's §2.3 pipeline ("compute the density over
// a grid ... then Fourier transform it and compute its power spectrum").
func PowerSpectrum3D(f []complex128, n int) ([]float64, []int, error) {
	if len(f) != n*n*n {
		return nil, nil, fmt.Errorf("%w: %d elements for %d^3", errSize, len(f), n)
	}
	nk := n/2 + 1
	power := make([]float64, nk)
	count := make([]int, nk)
	for kz := 0; kz < n; kz++ {
		fz := foldFreq(kz, n)
		for ky := 0; ky < n; ky++ {
			fy := foldFreq(ky, n)
			base := (kz*n + ky) * n
			for kx := 0; kx < n; kx++ {
				fx := foldFreq(kx, n)
				k2 := fx*fx + fy*fy + fz*fz
				kbin := isqrt(k2)
				if kbin >= nk {
					continue
				}
				v := f[base+kx]
				power[kbin] += real(v)*real(v) + imag(v)*imag(v)
				count[kbin]++
			}
		}
	}
	for i := range power {
		if count[i] > 0 {
			power[i] /= float64(count[i])
		}
	}
	return power, count, nil
}

// foldFreq maps a DFT index to its signed frequency.
func foldFreq(k, n int) int {
	if k > n/2 {
		return k - n
	}
	return k
}

func isqrt(x int) int {
	if x < 0 {
		return 0
	}
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}
