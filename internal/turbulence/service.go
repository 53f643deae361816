package turbulence

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"sqlarray/internal/blob"
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
	b := &batch{snap: snap, step: step, mode: mode, buf: make([]float64, velChannels*np*np*np)}
	b.put = func(dstOff int, seg []byte) {
		dst := b.buf[dstOff/8:][:len(seg)/8]
		for k := range dst {
			dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(seg[8*k:]))
		}
	}
	if mode == WholeBlob {
		b.cache = map[int64][]byte{}
	}
	out := make([][3]float64, len(pts))
	for i, p := range pts {
		v, err := s.velocityOne(b, p, scheme)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// batch is what one VelocityBatch call reuses from point to point.
type batch struct {
	snap  *engine.Snapshot
	step  int
	mode  FetchMode
	cache map[int64][]byte // WholeBlob: stored velocity blobs by cube key
	runs  []blob.Run       // the current stencil's run plan
	// buf is the current stencil as a stencil-local (3, np, np, np)
	// array; put decodes a segment of the blob into it at dstOff.
	buf []float64
	put func(dstOff int, seg []byte)
}

func (s *Store) velocityOne(b *batch, p [3]float64, scheme interp.Scheme) ([3]float64, error) {
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
		return s.stencilValue(b, i[0]/s.cube, i[1]/s.cube, i[2]/s.cube,
			i[0]%s.cube+s.ghost, i[1]%s.cube+s.ghost, i[2]%s.cube+s.ghost, 1, one, one, one)
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
	return s.stencilValue(b, cx, cy, cz, i0x-base, i0y-base, i0z-base, np,
		wx[:np], wy[:np], wz[:np])
}

// stencilValue evaluates the weighted sum over an np³ stencil starting
// at (sx, sy, sz) in block coordinates, for the three velocity channels
// in one pass: a node's u, v, w are adjacent, and each channel sums the
// same products in the same (kz, ky, kx) order as a pass of its own.
// Both fetch modes gather the stencil into b.buf by the same run plan,
// so the kernel reads one stencil-local (3, np, np, np) array.
func (s *Store) stencilValue(b *batch, cx, cy, cz, sx, sy, sz, np int, wx, wy, wz []float64) ([3]float64, error) {
	m := s.blockSide()
	if sx < 0 || sy < 0 || sz < 0 || sx+np > m || sy+np > m || sz+np > m {
		return [3]float64{}, fmt.Errorf("turbulence: stencil [%d..%d) outside block of side %d (ghost too small)",
			sx, sx+np, m)
	}
	key, err := s.cubeKey(b.step, cx, cy, cz)
	if err != nil {
		return [3]float64{}, err
	}
	b.runs = s.stencilRuns(b.runs[:0], sx, sy, sz, np)
	switch b.mode {
	case WholeBlob:
		blk, ok := b.cache[key]
		if !ok {
			if blk, err = s.readBlock(b.snap, key); err != nil {
				return [3]float64{}, err
			}
			b.cache[key] = blk
		}
		for _, r := range b.runs {
			b.put(r.DstOff, blk[r.SrcOff:r.SrcOff+r.Len])
		}
	case PartialRead:
		if err := s.readStencil(b, key); err != nil {
			return [3]float64{}, err
		}
	default:
		return [3]float64{}, fmt.Errorf("turbulence: unknown fetch mode %d", b.mode)
	}
	data := b.buf
	var u, v, w float64
	for kz := 0; kz < np; kz++ {
		wzk := wz[kz]
		for ky := 0; ky < np; ky++ {
			wyk := wy[ky] * wzk
			i := velChannels * (kz*np + ky) * np
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

// stencilRuns appends to dst the byte runs of the velocity blob that
// hold the np³ stencil at (sx, sy, sz): one run per in-tile x-row of
// every tile the stencil touches — u, v and w of up to t adjacent
// nodes — in ascending stored order, so the blob reader visits them
// without sorting. Each run's DstOff places it in a stencil-local
// (3, np, np, np) float64 array.
func (s *Store) stencilRuns(dst []blob.Run, sx, sy, sz, np int) []blob.Run {
	const node = velChannels * 8 // bytes per node
	t, nt := s.tile, s.blockSide()/s.tile
	for tz := sz / t; tz*t < sz+np; tz++ {
		z0, z1 := max(tz*t, sz), min(tz*t+t, sz+np)
		for ty := sy / t; ty*t < sy+np; ty++ {
			y0, y1 := max(ty*t, sy), min(ty*t+t, sy+np)
			for tx := sx / t; tx*t < sx+np; tx++ {
				x0, x1 := max(tx*t, sx), min(tx*t+t, sx+np)
				tile := len(s.header) + node*t*t*t*((tz*nt+ty)*nt+tx)
				for z := z0; z < z1; z++ {
					src := tile + node*(((z-tz*t)*t+y0-ty*t)*t+x0-tx*t)
					dstOff := node * (((z-sz)*np+y0-sy)*np + x0 - sx)
					for y := y0; y < y1; y++ {
						dst = append(dst, blob.Run{SrcOff: src, DstOff: dstOff, Len: node * (x1 - x0)})
						src += node * t
						dstOff += node * np
					}
				}
			}
		}
	}
	return dst
}

// readBlock performs the whole-blob path: it fetches the cube's entire
// velocity blob, header included, as one caller-owned copy, which
// stencilValue then reads stencils out of as a partial read reads them
// off the chunk pages. The stored header must equal the store's.
func (s *Store) readBlock(snap *engine.Snapshot, key int64) ([]byte, error) {
	ref, err := s.fetchRef(snap, key)
	if err != nil {
		return nil, err
	}
	raw, err := s.table.ResolveMaxAt(snap, ref)
	if err != nil {
		return nil, err
	}
	if len(raw) != s.BlockBytes() {
		return nil, fmt.Errorf("turbulence: cube key %d: stored blob of %d bytes, want %d", key, len(raw), s.BlockBytes())
	}
	if got := raw[:len(s.header)]; !bytes.Equal(got, s.header) {
		return nil, fmt.Errorf("turbulence: cube key %d: stored header %x, want %x", key, got, s.header)
	}
	return raw, nil
}

// readStencil performs the partial-read path: only b.runs, the
// stencil's in-tile x-rows, are fetched from the out-of-page velocity
// blob into b.buf. The float64 samples are decoded straight off the
// segments (pinned pages for raw blocks, decoded scratch for compressed
// ones) — no intermediate byte buffer, no copy. The direct decode
// requires every element to sit inside one segment, which holds because
// segments break only at chunk boundaries, every chunk starts on a
// BlockSize multiple, and BlockSize is a multiple of 8 (asserted below),
// past a header CreateStore has checked is a multiple of 8 too.
//
// The header is not read, so the blob is checked by its length, which
// the ref carries: a blob of another shape or of the untiled layout
// fails the batch at no I/O cost. A foreign blob of exactly BlockBytes
// is still read as velocity.
func (s *Store) readStencil(b *batch, key int64) error {
	ref, err := s.fetchRef(b.snap, key)
	if err != nil {
		return err
	}
	r, err := blob.DecodeRef(ref)
	if err != nil {
		return err
	}
	if r.Length != int64(s.BlockBytes()) {
		return fmt.Errorf("turbulence: cube key %d: stored blob of %d bytes, want %d", key, r.Length, s.BlockBytes())
	}
	return s.table.VisitBlobRunsAt(b.snap, ref, b.runs, b.put)
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
