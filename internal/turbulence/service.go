package turbulence

import (
	"encoding/binary"
	"fmt"
	"math"

	"sqlarray/internal/blob"
	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/interp"
)

// FetchMode selects how much of a blob an interpolation query reads.
type FetchMode int

const (
	// WholeBlob fetches the entire sub-cube blob, the "accessing the
	// whole blob (6 MB) for an 8-point 3D interpolation is obviously
	// overkill" baseline of §2.1.
	WholeBlob FetchMode = iota
	// PartialRead fetches only the stencil's byte runs through the blob
	// store's partial-read path.
	PartialRead
)

// String names the fetch mode.
func (m FetchMode) String() string {
	if m == PartialRead {
		return "partial"
	}
	return "whole"
}

// Velocity interpolates the velocity vector at a continuous position
// (in grid units, periodic) from snapshot step.
func (s *Store) Velocity(step int, p [3]float64, scheme interp.Scheme, mode FetchMode) ([3]float64, error) {
	out, err := s.VelocityBatch(step, [][3]float64{p}, scheme, mode)
	if err != nil {
		return [3]float64{}, err
	}
	return out[0], nil
}

// VelocityBatch interpolates a batch of positions, the shape of the
// public web service ("users can submit a set of about 10,000 particle
// positions ... and retrieve the interpolated values of the velocity
// field at those positions", §2.1). Whole-blob fetches are cached per
// batch so each touched cube is read once. An unknown scheme or a
// non-finite coordinate fails the batch before anything is read.
func (s *Store) VelocityBatch(step int, pts [][3]float64, scheme interp.Scheme, mode FetchMode) ([][3]float64, error) {
	np := scheme.Points()
	if np == 0 {
		return nil, fmt.Errorf("turbulence: unknown interpolation scheme %v", scheme)
	}
	if np/2 > s.ghost && np > 1 {
		return nil, fmt.Errorf("turbulence: scheme %v needs ghost >= %d, store has %d",
			scheme, np/2, s.ghost)
	}
	for i, p := range pts {
		for _, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("turbulence: point %d %v has a non-finite coordinate", i, p)
			}
		}
	}
	snap := s.db.Snapshot()
	defer snap.Release()
	out := make([][3]float64, len(pts))
	cache := map[int64][]float64{}
	for i, p := range pts {
		v, err := s.velocityOne(snap, step, p, scheme, mode, cache)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (s *Store) velocityOne(snap *engine.Snapshot, step int, p [3]float64, scheme interp.Scheme, mode FetchMode, cache map[int64][]float64) ([3]float64, error) {
	n := float64(s.n)
	// Wrap into [0, n).
	var g [3]float64
	for d := 0; d < 3; d++ {
		x := math.Mod(p[d], n)
		if x < 0 {
			x += n
		}
		g[d] = x
	}
	cx := int(g[0]) / s.cube
	cy := int(g[1]) / s.cube
	cz := int(g[2]) / s.cube
	// Local coordinates inside the ghosted block.
	lx := g[0] - float64(cx*s.cube) + float64(s.ghost)
	ly := g[1] - float64(cy*s.cube) + float64(s.ghost)
	lz := g[2] - float64(cz*s.cube) + float64(s.ghost)

	np := scheme.Points()
	m := s.blockSide()
	if scheme == interp.Nearest {
		ix, iy, iz := int(math.Round(lx)), int(math.Round(ly)), int(math.Round(lz))
		if ix >= m {
			ix = m - 1
		}
		if iy >= m {
			iy = m - 1
		}
		if iz >= m {
			iz = m - 1
		}
		return s.stencilValue(snap, step, cx, cy, cz, ix, iy, iz, 1,
			[]float64{1}, []float64{1}, []float64{1}, mode, cache)
	}
	i0x, tx := int(math.Floor(lx)), lx-math.Floor(lx)
	i0y, ty := int(math.Floor(ly)), ly-math.Floor(ly)
	i0z, tz := int(math.Floor(lz)), lz-math.Floor(lz)
	wx := make([]float64, np)
	wy := make([]float64, np)
	wz := make([]float64, np)
	interp.AxisWeights(scheme, tx, wx)
	interp.AxisWeights(scheme, ty, wy)
	interp.AxisWeights(scheme, tz, wz)
	base := np/2 - 1
	return s.stencilValue(snap, step, cx, cy, cz, i0x-base, i0y-base, i0z-base, np, wx, wy, wz, mode, cache)
}

// stencilValue evaluates the weighted sum over an np³ stencil starting
// at (sx, sy, sz) in block coordinates, for the three velocity channels.
func (s *Store) stencilValue(snap *engine.Snapshot, step, cx, cy, cz, sx, sy, sz, np int,
	wx, wy, wz []float64, mode FetchMode, cache map[int64][]float64) ([3]float64, error) {
	m := s.blockSide()
	if sx < 0 || sy < 0 || sz < 0 || sx+np > m || sy+np > m || sz+np > m {
		return [3]float64{}, fmt.Errorf("turbulence: stencil [%d..%d) outside block of side %d (ghost too small)",
			sx, sx+np, m)
	}
	var data []float64 // stencil-local (np³ × 3) or whole block (m³ × 4)
	var stride, chStride, off int
	switch mode {
	case WholeBlob:
		key, err := s.cubeKey(step, cx, cy, cz)
		if err != nil {
			return [3]float64{}, err
		}
		blk, ok := cache[key]
		if !ok {
			ref, err := s.fetchRef(snap, key)
			if err != nil {
				return [3]float64{}, err
			}
			raw, err := s.table.ResolveMaxAt(snap, ref)
			if err != nil {
				return [3]float64{}, err
			}
			arr, err := core.Wrap(raw)
			if err != nil {
				return [3]float64{}, err
			}
			blk = arr.Float64s()
			cache[key] = blk
		}
		data = blk
		stride = m
		chStride = m * m * m
		off = (sz*m+sy)*m + sx
	case PartialRead:
		sub, err := s.readStencil(snap, step, cx, cy, cz, sx, sy, sz, np)
		if err != nil {
			return [3]float64{}, err
		}
		data = sub
		stride = np
		chStride = np * np * np
		off = 0
	default:
		return [3]float64{}, fmt.Errorf("turbulence: unknown fetch mode %d", mode)
	}
	var out [3]float64
	for ch := 0; ch < 3; ch++ {
		sum := 0.0
		for kz := 0; kz < np; kz++ {
			wzk := wz[kz]
			for ky := 0; ky < np; ky++ {
				wyk := wy[ky] * wzk
				row := off + ch*chStride + (kz*stride+ky)*stride
				for kx := 0; kx < np; kx++ {
					sum += wx[kx] * wyk * data[row+kx]
				}
			}
		}
		out[ch] = sum
	}
	return out, nil
}

// readStencil performs the partial-read path: only the byte runs of the
// np³×3 stencil sub-array are fetched from the out-of-page blob, and
// the float64 samples are decoded straight off the segments (pinned
// pages for raw blocks, decoded scratch for compressed ones) — no
// intermediate byte buffer, no copy. The direct decode requires every
// element to sit inside one segment, which holds because segments break
// only at chunk boundaries, every chunk starts on a BlockSize multiple,
// and BlockSize is a multiple of 8 (asserted below), past a header
// CreateStore has checked is a multiple of 8 too.
func (s *Store) readStencil(snap *engine.Snapshot, step, cx, cy, cz, sx, sy, sz, np int) ([]float64, error) {
	key, err := s.cubeKey(step, cx, cy, cz)
	if err != nil {
		return nil, err
	}
	ref, err := s.fetchRef(snap, key)
	if err != nil {
		return nil, err
	}
	h := s.blockHeader()
	runs, err := core.SubarrayPlan(h, []int{sx, sy, sz, 0}, []int{np, np, np, 3})
	if err != nil {
		return nil, err
	}
	hdr := h.EncodedSize()
	blobRuns := make([]blob.Run, len(runs))
	dstBytes := 0
	for i, r := range runs {
		blobRuns[i] = blob.Run{SrcOff: r.SrcOff + hdr, DstOff: r.DstOff, Len: r.Len}
		dstBytes += r.Len
	}
	out := make([]float64, dstBytes/8)
	err = s.table.VisitBlobRunsAt(snap, ref, blobRuns, func(dstOff int, seg []byte) {
		for w := 0; w+8 <= len(seg); w += 8 {
			out[(dstOff+w)/8] = math.Float64frombits(binary.LittleEndian.Uint64(seg[w:]))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// No float64 may straddle a segment boundary (see readStencil).
const _ = uint(-(blob.BlockSize % 8))

// ServiceStats reports the I/O the service generated, for the blob-size
// trade-off experiment (E10).
type ServiceStats struct {
	PhysicalReads uint64
	BytesRead     uint64
	ChunkReads    uint64
}

// Stats snapshots I/O counters from the underlying pools.
func (s *Store) Stats() ServiceStats {
	ps := s.db.Pool().Stats()
	bs := s.db.Blobs().Stats()
	return ServiceStats{
		PhysicalReads: ps.PhysicalReads,
		BytesRead:     ps.BytesRead,
		ChunkReads:    bs.ChunkReads,
	}
}

// DropCache clears the buffer pool, forcing cold reads.
func (s *Store) DropCache() error { return s.db.DropCleanBuffers() }
