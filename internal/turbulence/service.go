package turbulence

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

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

// stencil is one point of a batch, planned before anything is read: the
// cube that holds its stencil, the stencil's origin in block
// coordinates and the kernel's weights along each axis.
type stencil struct {
	key        int64
	sx, sy, sz int
	w          [3][8]float64
}

// VelocityBatch interpolates a batch of positions, the shape of the
// public web service ("users can submit a set of about 10,000 particle
// positions ... and retrieve the interpolated values of the velocity
// field at those positions", §2.1). It plans every point first, so an
// unknown scheme or a non-finite coordinate fails the batch before
// anything is read. It then visits the points in cube-key order — the
// table's clustered z-order — and resolves each touched cube's row, ref
// and chunk list once. A whole-blob fetch reads each cube once into one
// reused buffer; a partial read visits each stencil's runs. Results are
// written at the caller's index.
func (s *Store) VelocityBatch(step int, pts [][3]float64, scheme interp.Scheme, mode FetchMode) ([][3]float64, error) {
	np := scheme.Points()
	switch {
	case np == 0:
		return nil, fmt.Errorf("turbulence: unknown interpolation scheme %v", scheme)
	case np/2 > s.ghost && np > 1:
		return nil, fmt.Errorf("turbulence: scheme %v needs ghost >= %d, store has %d",
			scheme, np/2, s.ghost)
	case mode != WholeBlob && mode != PartialRead:
		return nil, fmt.Errorf("turbulence: unknown fetch mode %d", mode)
	}
	plan := make([]stencil, len(pts))
	order := make([]int, len(pts))
	for i, p := range pts {
		if err := s.planPoint(&plan[i], step, p, scheme); err != nil {
			return nil, fmt.Errorf("turbulence: point %d %v: %w", i, p, err)
		}
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(plan[a].key, plan[b].key) })

	snap := s.db.Snapshot()
	defer snap.Release()
	// buf is the current stencil as a stencil-local (3, np, np, np)
	// array; put decodes a segment of the blob into it at dstOff.
	buf := make([]float64, velChannels*np*np*np)
	put := func(dstOff int, seg []byte) {
		dst := buf[dstOff/8:][:len(seg)/8]
		for k := range dst {
			dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(seg[8*k:]))
		}
	}
	var (
		runs  []blob.Run
		whole []blob.Run // WholeBlob: one run over the cube's blob
		cube  []byte     // WholeBlob: the current cube's blob, header included
	)
	if mode == WholeBlob {
		cube = make([]byte, s.BlockBytes())
		whole = []blob.Run{{Len: len(cube)}}
	}
	out := make([][3]float64, len(pts))
	for lo := 0; lo < len(order); {
		key := plan[order[lo]].key
		hi := lo + 1
		for hi < len(order) && plan[order[hi]].key == key {
			hi++
		}
		r, err := s.openCube(snap, key)
		if err != nil {
			return nil, err
		}
		if mode == WholeBlob {
			if err := r.ReadRuns(cube, whole); err != nil {
				return nil, fmt.Errorf("turbulence: cube key %d: %w", key, err)
			}
			if got := cube[:len(s.header)]; !bytes.Equal(got, s.header) {
				return nil, fmt.Errorf("turbulence: cube key %d: stored header %x, want %x", key, got, s.header)
			}
		}
		for _, i := range order[lo:hi] {
			st := &plan[i]
			runs = s.stencilRuns(runs[:0], st.sx, st.sy, st.sz, np)
			if mode == WholeBlob {
				for _, run := range runs {
					put(run.DstOff, cube[run.SrcOff:run.SrcOff+run.Len])
				}
			} else if err := r.VisitRuns(runs, put); err != nil {
				return nil, fmt.Errorf("turbulence: cube key %d: %w", key, err)
			}
			out[i] = stencilSum(buf, np, st.w[0][:np], st.w[1][:np], st.w[2][:np])
		}
		lo = hi
	}
	return out, nil
}

// planPoint fills st for the point p: the cube holding its np³ stencil,
// the stencil's origin in that cube's ghosted block and the axis
// weights, np = scheme.Points().
func (s *Store) planPoint(st *stencil, step int, p [3]float64, scheme interp.Scheme) error {
	n := float64(s.n)
	// Wrap into [0, n).
	var g [3]float64
	for d, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return errors.New("non-finite coordinate")
		}
		x = math.Mod(x, n)
		if x < 0 {
			x += n
			if x == n { // a tiny negative x rounds up to n
				x = 0
			}
		}
		g[d] = x
	}
	np := scheme.Points()
	var c, o [3]int // cube coordinates, stencil origin in the block
	if scheme == interp.Nearest {
		// Round to a node first, then find its cube: the last half cell
		// of a cube rounds into the next one (into cube 0 at the end).
		for d := range g {
			i := int(math.Round(g[d])) % s.n
			c[d], o[d] = i/s.cube, i%s.cube+s.ghost
			st.w[d][0] = 1
		}
	} else {
		base := np/2 - 1
		for d := range g {
			c[d] = int(g[d]) / s.cube
			// Local coordinate inside the ghosted block.
			l := g[d] - float64(c[d]*s.cube) + float64(s.ghost)
			i0 := math.Floor(l)
			o[d] = int(i0) - base
			interp.AxisWeights(scheme, l-i0, st.w[d][:np])
		}
	}
	m := s.blockSide()
	for _, x := range o {
		if x < 0 || x+np > m {
			return fmt.Errorf("stencil [%d..%d) outside block of side %d (ghost too small)", x, x+np, m)
		}
	}
	key, err := s.cubeKey(step, c[0], c[1], c[2])
	if err != nil {
		return err
	}
	st.key, st.sx, st.sy, st.sz = key, o[0], o[1], o[2]
	return nil
}

// openCube resolves the velocity blob stored under key, as of snap: one
// row lookup and one directory walk. The blob is checked by its length,
// which the ref carries, so a blob of another shape or of the untiled
// layout fails the batch before any chunk is read; a whole-blob fetch
// checks the header as well. A foreign blob of exactly BlockBytes is
// still read as velocity by a partial read.
func (s *Store) openCube(snap *engine.Snapshot, key int64) (blob.Reader, error) {
	row, err := s.table.GetAt(snap, key)
	if err != nil {
		return blob.Reader{}, fmt.Errorf("turbulence: cube key %d: %w", key, err)
	}
	ref, err := blob.DecodeRef(row[1].B)
	if err != nil {
		return blob.Reader{}, fmt.Errorf("turbulence: cube key %d: %w", key, err)
	}
	if ref.Length != int64(s.BlockBytes()) {
		return blob.Reader{}, fmt.Errorf("turbulence: cube key %d: stored blob of %d bytes, want %d", key, ref.Length, s.BlockBytes())
	}
	r, err := s.table.BlobAt(snap, row[1].B)
	if err != nil {
		return blob.Reader{}, fmt.Errorf("turbulence: cube key %d: %w", key, err)
	}
	return r, nil
}

// stencilSum evaluates the weighted sum over the np³ stencil in data, a
// stencil-local (3, np, np, np) array, for the three velocity channels
// in one pass: a node's u, v, w are adjacent, and each channel sums the
// same products in the same (kz, ky, kx) order as a pass of its own.
func stencilSum(data []float64, np int, wx, wy, wz []float64) [3]float64 {
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
	return [3]float64{u, v, w}
}

// stencilRuns appends to dst the byte runs of the velocity blob that
// hold the np³ stencil at (sx, sy, sz): one run per in-tile x-row of
// every tile the stencil touches — u, v and w of up to t adjacent
// nodes — in ascending stored order, so the blob reader visits them
// without sorting. Each run's DstOff places it in a stencil-local
// (3, np, np, np) float64 array.
//
// The float64 samples are decoded straight off the segments a partial
// read lends (pinned pages for raw blocks, decoded scratch for
// compressed ones). That requires every element to sit inside one
// segment, which holds because segments break only at chunk boundaries,
// every chunk starts on a BlockSize multiple, and BlockSize is a
// multiple of 8 (asserted below), past a header CreateStore has checked
// is a multiple of 8 too.
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

// No float64 may straddle a segment boundary (see stencilRuns).
const _ = uint(-(blob.BlockSize % 8))

// DropCache clears the buffer pool, forcing cold reads.
func (s *Store) DropCache() error { return s.db.DropCleanBuffers() }
