package turbulence

import (
	"bytes"
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
			if x == n { // a tiny negative x rounds up to n
				x = 0
			}
		}
		g[d] = x
	}
	if scheme == interp.Nearest {
		// Round to a node first, then find its cube: the last half cell
		// of a cube rounds into the next one (into cube 0 at the end).
		var i [3]int
		for d := range g {
			i[d] = int(math.Round(g[d])) % s.n
		}
		one := []float64{1}
		return s.stencilValue(snap, step, i[0]/s.cube, i[1]/s.cube, i[2]/s.cube,
			i[0]%s.cube+s.ghost, i[1]%s.cube+s.ghost, i[2]%s.cube+s.ghost, 1, one, one, one, mode, cache)
	}
	cx := int(g[0]) / s.cube
	cy := int(g[1]) / s.cube
	cz := int(g[2]) / s.cube
	// Local coordinates inside the ghosted block.
	lx := g[0] - float64(cx*s.cube) + float64(s.ghost)
	ly := g[1] - float64(cy*s.cube) + float64(s.ghost)
	lz := g[2] - float64(cz*s.cube) + float64(s.ghost)

	np := scheme.Points()
	i0x, tx := int(math.Floor(lx)), lx-math.Floor(lx)
	i0y, ty := int(math.Floor(ly)), ly-math.Floor(ly)
	i0z, tz := int(math.Floor(lz)), lz-math.Floor(lz)
	var wx, wy, wz [8]float64
	interp.AxisWeights(scheme, tx, wx[:np])
	interp.AxisWeights(scheme, ty, wy[:np])
	interp.AxisWeights(scheme, tz, wz[:np])
	base := np/2 - 1
	return s.stencilValue(snap, step, cx, cy, cz, i0x-base, i0y-base, i0z-base, np,
		wx[:np], wy[:np], wz[:np], mode, cache)
}

// stencilValue evaluates the weighted sum over an np³ stencil starting
// at (sx, sy, sz) in block coordinates, for the three velocity channels
// in one pass: a node's u, v, w are adjacent, and each channel sums the
// same products in the same (kz, ky, kx) order as a pass of its own.
// Both fetch modes hand it velocity only, three elements per node.
func (s *Store) stencilValue(snap *engine.Snapshot, step, cx, cy, cz, sx, sy, sz, np int,
	wx, wy, wz []float64, mode FetchMode, cache map[int64][]float64) ([3]float64, error) {
	m := s.blockSide()
	if sx < 0 || sy < 0 || sz < 0 || sx+np > m || sy+np > m || sz+np > m {
		return [3]float64{}, fmt.Errorf("turbulence: stencil [%d..%d) outside block of side %d (ghost too small)",
			sx, sx+np, m)
	}
	var data []float64  // stencil-local (3, np, np, np) or whole block (3, m, m, m)
	var stride, off int // nodes per row, element of the stencil's first node
	switch mode {
	case WholeBlob:
		key, err := s.cubeKey(step, cx, cy, cz)
		if err != nil {
			return [3]float64{}, err
		}
		blk, ok := cache[key]
		if !ok {
			if blk, err = s.readBlock(snap, key); err != nil {
				return [3]float64{}, err
			}
			cache[key] = blk
		}
		data = blk
		stride = m
		off = velChannels * ((sz*m+sy)*m + sx)
	case PartialRead:
		sub, err := s.readStencil(snap, step, cx, cy, cz, sx, sy, sz, np)
		if err != nil {
			return [3]float64{}, err
		}
		data = sub
		stride = np
	default:
		return [3]float64{}, fmt.Errorf("turbulence: unknown fetch mode %d", mode)
	}
	var u, v, w float64
	for kz := 0; kz < np; kz++ {
		wzk := wz[kz]
		for ky := 0; ky < np; ky++ {
			wyk := wy[ky] * wzk
			i := off + velChannels*(kz*stride+ky)*stride
			for kx := 0; kx < np; kx++ {
				wk := wx[kx] * wyk
				u += wk * data[i]
				v += wk * data[i+1]
				w += wk * data[i+2]
				i += velChannels
			}
		}
	}
	return [3]float64{u, v, w}, nil
}

// readBlock performs the whole-blob path: it fetches the cube's entire
// velocity blob as one run covering header and payload and decodes the
// (3, m, m, m) float64 samples straight off the segments, as
// readStencil does — one copy, not a staged blob plus a decoded one.
// The stored header must equal blockHeader's encoding.
func (s *Store) readBlock(snap *engine.Snapshot, key int64) ([]float64, error) {
	ref, err := s.fetchRef(snap, key)
	if err != nil {
		return nil, err
	}
	h := s.blockHeader()
	want := h.AppendEncode(nil)
	hdr := len(want)
	got := make([]byte, hdr)
	out := make([]float64, h.Count())
	err = s.table.VisitBlobRunsAt(snap, ref, []blob.Run{{Len: h.TotalBytes()}}, func(dstOff int, seg []byte) {
		if dstOff < hdr {
			n := copy(got[dstOff:], seg)
			seg, dstOff = seg[n:], dstOff+n
		}
		for w := 0; w+8 <= len(seg); w += 8 {
			out[(dstOff-hdr+w)/8] = math.Float64frombits(binary.LittleEndian.Uint64(seg[w:]))
		}
	})
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("turbulence: cube key %d: stored header %x, want %x", key, got, want)
	}
	return out, nil
}

// readStencil performs the partial-read path: only the stencil's x-rows
// are fetched from the out-of-page velocity blob, as a stencil-local
// (3, np, np, np) array. A block's (3, m, m, m) elements lie exactly as
// a (3m, m, m) array's, so a plan on that view makes each row — u, v
// and w of np adjacent nodes — one run: np² runs. The float64 samples
// are decoded straight off the segments (pinned pages for raw blocks,
// decoded scratch for compressed ones) — no intermediate byte buffer,
// no copy. The direct decode requires every element to sit inside one
// segment, which holds because segments break only at chunk boundaries,
// every chunk starts on a BlockSize multiple, and BlockSize is a
// multiple of 8 (asserted below), past a header CreateStore has checked
// is a multiple of 8 too.
func (s *Store) readStencil(snap *engine.Snapshot, step, cx, cy, cz, sx, sy, sz, np int) ([]float64, error) {
	key, err := s.cubeKey(step, cx, cy, cz)
	if err != nil {
		return nil, err
	}
	ref, err := s.fetchRef(snap, key)
	if err != nil {
		return nil, err
	}
	m := s.blockSide()
	rows := core.Header{Class: core.Max, Elem: core.Float64, Dims: []int{velChannels * m, m, m}}
	runs, err := core.SubarrayPlan(rows, []int{velChannels * sx, sy, sz}, []int{velChannels * np, np, np})
	if err != nil {
		return nil, err
	}
	h := s.blockHeader()
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
