package nbody

import (
	"fmt"
	"math"
	"sort"

	"sqlarray/internal/fft"
	"sqlarray/internal/octree"
)

// MergerLink connects a halo to its main progenitor in the previous
// snapshot.
type MergerLink struct {
	HaloIdx       int // index into the later snapshot's halo list
	ProgenitorIdx int // index into the earlier list, -1 if none
	Shared        int // particles in common
}

// LinkMergers matches halos across snapshots "by comparing the particle
// labels in the halos at different time steps" (§2.3): each later halo
// links to the earlier halo contributing the most shared IDs.
func LinkMergers(earlier, later []Halo) []MergerLink {
	owner := map[int64]int{}
	for hi, h := range earlier {
		for _, id := range h.Members {
			owner[id] = hi
		}
	}
	links := make([]MergerLink, len(later))
	for li, h := range later {
		counts := map[int]int{}
		for _, id := range h.Members {
			if hi, ok := owner[id]; ok {
				counts[hi]++
			}
		}
		best, bestN := -1, 0
		for hi, n := range counts {
			if n > bestN || (n == bestN && hi < best) {
				best, bestN = hi, n
			}
		}
		links[li] = MergerLink{HaloIdx: li, ProgenitorIdx: best, Shared: bestN}
	}
	return links
}

// cicDensity assigns particle mass onto an n³ grid with the cloud-in-
// cell kernel ("compute the density over a 6403 grid, interpolating over
// the particle positions, using a cloud-in-cell (CIC) algorithm",
// §2.3). Each particle deposits trilinear weights onto its 8
// surrounding cells; total mass is exactly conserved.
func cicDensity(parts []Particle, n int) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("nbody: CIC grid side %d", n)
	}
	rho := make([]float64, n*n*n)
	fn := float64(n)
	for _, p := range parts {
		// Cell-centred convention: particle at x deposits between cell
		// floor(x·n - 0.5) and its neighbour.
		x := p.Pos[0]*fn - 0.5
		y := p.Pos[1]*fn - 0.5
		z := p.Pos[2]*fn - 0.5
		ix, iy, iz := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
		tx, ty, tz := x-float64(ix), y-float64(iy), z-float64(iz)
		for dz := 0; dz < 2; dz++ {
			wz := tz
			if dz == 0 {
				wz = 1 - tz
			}
			gz := modc(iz+dz, n)
			for dy := 0; dy < 2; dy++ {
				wy := ty
				if dy == 0 {
					wy = 1 - ty
				}
				gy := modc(iy+dy, n)
				row := (gz*n + gy) * n
				for dx := 0; dx < 2; dx++ {
					wx := tx
					if dx == 0 {
						wx = 1 - tx
					}
					gx := modc(ix+dx, n)
					rho[row+gx] += wx * wy * wz
				}
			}
		}
	}
	return rho, nil
}

// PowerSpectrum computes P(k) of the density contrast δ = ρ/ρ̄ - 1 via
// the FFT substrate, returning shell-averaged power per integer k.
func PowerSpectrum(parts []Particle, n int) ([]float64, error) {
	rho, err := cicDensity(parts, n)
	if err != nil {
		return nil, err
	}
	mean := 0.0
	for _, v := range rho {
		mean += v
	}
	mean /= float64(len(rho))
	if mean == 0 {
		return nil, fmt.Errorf("nbody: empty density field")
	}
	delta := make([]complex128, len(rho))
	for i, v := range rho {
		delta[i] = complex(v/mean-1, 0)
	}
	if err := fft.FFTN(delta, []int{n, n, n}, fft.Forward); err != nil {
		return nil, err
	}
	p, _, err := fft.PowerSpectrum3D(delta, n)
	return p, err
}

// TwoPointCorrelation estimates ξ(r) with the natural estimator
// DD/RR − 1 on the periodic unit box, where RR is analytic (shell
// volume × pair density). bins are the right edges of the radial bins.
func TwoPointCorrelation(parts []Particle, bins []float64) ([]float64, error) {
	if len(bins) == 0 {
		return nil, fmt.Errorf("nbody: no bins")
	}
	for i := 1; i < len(bins); i++ {
		if bins[i] <= bins[i-1] {
			return nil, fmt.Errorf("nbody: bins not ascending")
		}
	}
	rmax := bins[len(bins)-1]
	if rmax >= 0.5 {
		return nil, fmt.Errorf("nbody: max radius %g exceeds half box", rmax)
	}
	// Count pairs with an octree (points near the boundary are handled
	// by the minimum-image metric in a direct pass over candidates from
	// a slightly enlarged sphere query — the tree is not periodic, so
	// use the linked-cell approach instead for exactness).
	n := len(parts)
	dd := make([]int64, len(bins))
	nc := int(1 / rmax)
	if nc < 1 {
		nc = 1
	}
	if nc > 64 {
		nc = 64
	}
	cells := make(map[int][]int, n)
	cellOf := func(p [3]float64) (int, int, int) {
		return int(p[0] * float64(nc)), int(p[1] * float64(nc)), int(p[2] * float64(nc))
	}
	for i, p := range parts {
		cx, cy, cz := cellOf(p.Pos)
		cells[(cz*nc+cy)*nc+cx] = append(cells[(cz*nc+cy)*nc+cx], i)
	}
	reach := 1
	if nc > 2 {
		reach = int(math.Ceil(rmax*float64(nc))) + 1
	}
	for i, p := range parts {
		cx, cy, cz := cellOf(p.Pos)
		for dz := -reach; dz <= reach; dz++ {
			for dy := -reach; dy <= reach; dy++ {
				for dx := -reach; dx <= reach; dx++ {
					key := (modc(cz+dz, nc)*nc+modc(cy+dy, nc))*nc + modc(cx+dx, nc)
					for _, j := range cells[key] {
						if j <= i {
							continue
						}
						r := math.Sqrt(periodicDist2(p.Pos, parts[j].Pos))
						if r > rmax {
							continue
						}
						k := sort.SearchFloat64s(bins, r)
						if k < len(bins) {
							dd[k]++
						}
					}
				}
			}
		}
	}
	// Analytic RR for a periodic box of volume 1: expected pairs in a
	// shell = N(N-1)/2 × shell volume.
	out := make([]float64, len(bins))
	prev := 0.0
	pairNorm := float64(n) * float64(n-1) / 2
	for k, hi := range bins {
		shellVol := 4 * math.Pi / 3 * (hi*hi*hi - prev*prev*prev)
		expected := pairNorm * shellVol
		if expected > 0 {
			out[k] = float64(dd[k])/expected - 1
		}
		prev = hi
	}
	return out, nil
}

// LightconePoint is one particle on the observer's light-cone.
type LightconePoint struct {
	Particle
	Dist     float64 // comoving distance from the observer
	Step     int     // snapshot the particle was taken from
	Redshift float64 // distance redshift + radial Doppler term
}

// Lightcone extracts particles inside a viewing cone, taking each
// radial shell from the snapshot whose epoch matches it ("as we look
// farther, the simulation box needs to be taken from an earlier time
// step", §2.3) and attaching a Doppler-shifted redshift along the
// radial direction. shellEdges must have len(snaps)+1 ascending entries:
// shell i = [shellEdges[i], shellEdges[i+1]) uses snaps[i], nearest
// first (latest epoch first).
func Lightcone(snaps []*Snapshot, shellEdges []float64, cone octree.Cone, hubble float64) ([]LightconePoint, error) {
	if len(shellEdges) != len(snaps)+1 {
		return nil, fmt.Errorf("nbody: %d shell edges for %d snapshots", len(shellEdges), len(snaps))
	}
	var out []LightconePoint
	for si, snap := range snaps {
		lo, hi := shellEdges[si], shellEdges[si+1]
		if hi <= lo {
			return nil, fmt.Errorf("nbody: shell %d empty [%g,%g)", si, lo, hi)
		}
		tree := octree.New(256)
		for i := range snap.Particles {
			p := &snap.Particles[i]
			err := tree.Insert(octree.Point{X: p.Pos[0], Y: p.Pos[1], Z: p.Pos[2], ID: p.ID})
			if err != nil {
				return nil, err
			}
		}
		c := cone
		c.RMin, c.RMax = lo, hi
		hits := tree.QueryCone(c)
		for _, h := range hits {
			if h.ID < 0 || int(h.ID) >= len(snap.Particles) {
				continue // foreign IDs: caller did not use generator ordering
			}
			p := snap.Particles[h.ID] // IDs are slice indexes by construction
			dx := [3]float64{p.Pos[0] - cone.Apex[0], p.Pos[1] - cone.Apex[1], p.Pos[2] - cone.Apex[2]}
			dist := math.Sqrt(dx[0]*dx[0] + dx[1]*dx[1] + dx[2]*dx[2])
			if dist == 0 {
				continue
			}
			vr := (p.Vel[0]*dx[0] + p.Vel[1]*dx[1] + p.Vel[2]*dx[2]) / dist
			out = append(out, LightconePoint{
				Particle: p,
				Dist:     dist,
				Step:     snap.Step,
				Redshift: hubble*dist + vr,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out, nil
}
