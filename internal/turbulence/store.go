package turbulence

import (
	"fmt"
	"io"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/sfc"
)

// Store is the turbulence database: one row per (cube+2g)³ sub-cube,
// clustered on (timestep, z-index) so spatially adjacent cubes are
// adjacent on disk (§2.1: "partitioned along a space filling curve
// (z-index) into cubes of (64+8)³ ... Each blob is ... stored in a
// separate row"). A row holds the cube in two MAX columns: blob, the
// velocity in t³ tiles (see blockHeader), and p, the pressure as an
// (m, m, m) array. The service interpolates velocity only, so no read
// of it moves a byte of pressure.
type Store struct {
	db     *engine.DB
	table  *engine.Table
	n      int    // full grid side
	cube   int    // sub-cube side without ghosts
	ghost  int    // ghost-zone width on each face
	tile   int    // tile edge t, the largest of 4, 2 and 1 dividing the block side
	header []byte // encoded velocity blob header, the same for every cube
}

// velChannels is the number of quantities in the blob column (u, v, w).
const velChannels = 3

// blockSide returns the stored cube side including ghosts.
func (s *Store) blockSide() int { return s.cube + 2*s.ghost }

// keyFor packs (step, zcode) into the clustered key.
func keyFor(step int, zcode uint64) int64 {
	return int64(uint64(step)<<40 | zcode)
}

// CreateStore builds the table and ingests snapshot 0 of field f,
// partitioned into cube³ blocks with the given ghost width. A ghost of
// 4 supports the 8-point Lagrangian kernel everywhere inside a block,
// exactly the paper's "+8 means that each cube contains an extra 8 voxel
// wide buffer so that particles on the edge ... still have their
// neighbors within 4 voxels in the same blob".
func CreateStore(db *engine.DB, tableName string, f *Field, cube, ghost int) (*Store, error) {
	if cube < 1 || f.N%cube != 0 {
		return nil, fmt.Errorf("turbulence: cube side %d must divide grid side %d", cube, f.N)
	}
	if ghost < 0 || ghost > f.N/2 {
		return nil, fmt.Errorf("turbulence: ghost width %d outside [0,%d]", ghost, f.N/2)
	}
	schema, err := engine.NewSchema(
		engine.Column{Name: "zkey", Type: engine.ColInt64},
		engine.Column{Name: "blob", Type: engine.ColVarBinaryMax},
		engine.Column{Name: "p", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		return nil, err
	}
	table, err := db.CreateTable(tableName, schema)
	if err != nil {
		return nil, err
	}
	s := &Store{db: db, table: table, n: f.N, cube: cube, ghost: ghost}
	s.tile = 1
	for _, t := range []int{4, 2} {
		if s.blockSide()%t == 0 {
			s.tile = t
			break
		}
	}
	h := s.blockHeader()
	s.header = h.AppendEncode(nil)
	if hs := len(s.header); hs%8 != 0 {
		// The reads decode float64s in place off 8-byte-aligned segments.
		return nil, fmt.Errorf("turbulence: block header of %d bytes is not 8-byte aligned", hs)
	}
	if err := s.AddSnapshot(0, f); err != nil {
		return nil, err
	}
	return s, nil
}

// AddSnapshot ingests another timestep of the same geometry through the
// bulk-load path: blocks are packed in grid order (z-shuffled keys —
// the loader sorts into z-curve order) and land as freshly packed
// leaves in one commit, so a crash mid-snapshot leaves no partial step.
// Each cube is packed only when the loader asks for its row, into the
// same two arrays: the loader writes a row's MAX values to blob pages
// before it asks for the next.
func (s *Store) AddSnapshot(step int, f *Field) error {
	if f.N != s.n {
		return fmt.Errorf("turbulence: snapshot grid %d != store grid %d", f.N, s.n)
	}
	m := s.blockSide()
	vel, err := core.New(core.Max, core.Float64, s.blockHeader().Dims...)
	if err != nil {
		return err
	}
	p, err := core.New(core.Max, core.Float64, m, m, m)
	if err != nil {
		return err
	}
	nc := s.n / s.cube
	var row [3]engine.Value
	i := 0
	_, err = s.table.BulkLoad(rowsFunc(func() ([]engine.Value, error) {
		if i == nc*nc*nc {
			return nil, io.EOF
		}
		cx, cy, cz := i%nc, i/nc%nc, i/(nc*nc)
		i++
		code, err := sfc.Encode3D(uint32(cx), uint32(cy), uint32(cz))
		if err != nil {
			return nil, err
		}
		s.packBlock(vel, p, f, cx, cy, cz)
		row[0] = engine.IntValue(keyFor(step, code))
		row[1] = engine.BinaryMaxValue(vel.Bytes())
		row[2] = engine.BinaryMaxValue(p.Bytes())
		return row[:], nil
	}), engine.BulkOptions{})
	return err
}

// rowsFunc adapts a function that fills and returns one reused row to
// engine.BulkSource.
type rowsFunc func() ([]engine.Value, error)

// Next implements engine.BulkSource.
func (f rowsFunc) Next() ([]engine.Value, error) { return f() }

// packBlock fills the tiled velocity array vel and the (m, m, m)
// pressure array p with one sub-cube, including ghost zones copied from
// periodic neighbours.
func (s *Store) packBlock(vel, p *core.Array, f *Field, cx, cy, cz int) {
	m := s.blockSide()
	x0 := cx*s.cube - s.ghost
	y0 := cy*s.cube - s.ghost
	z0 := cz*s.cube - s.ghost
	for lz := 0; lz < m; lz++ {
		for ly := 0; ly < m; ly++ {
			for lx := 0; lx < m; lx++ {
				u, v, w, pr := f.At(x0+lx, y0+ly, z0+lz)
				lin := s.nodeElem(lx, ly, lz)
				vel.SetFloatAt(lin, u)
				vel.SetFloatAt(lin+1, v)
				vel.SetFloatAt(lin+2, w)
				p.SetFloatAt((lz*m+ly)*m+lx, pr)
			}
		}
	}
}

// CubeSide returns the partition cube side (without ghosts).
func (s *Store) CubeSide() int { return s.cube }

// Ghost returns the ghost-zone width.
func (s *Store) Ghost() int { return s.ghost }

// blockHeader is the header every stored velocity blob carries: dims
// (3t, t, t, m/t, m/t, m/t), column-major. The first dim is a node's
// u, v, w and then the node's x within its tile, the next two its y and
// z within the tile, the last three the tile. So a tile's 3t³ elements
// are contiguous, and so are the 3t of each in-tile x-row. Six dims,
// not (3, t, t, t, …)'s seven: the encoded header is then 40 bytes, a
// multiple of 8, where seven dims make 44.
func (s *Store) blockHeader() core.Header {
	t, nt := s.tile, s.blockSide()/s.tile
	return core.Header{Class: core.Max, Elem: core.Float64, Dims: []int{velChannels * t, t, t, nt, nt, nt}}
}

// nodeElem returns the element index of channel u of block node
// (x, y, z) in the tiled velocity blob; v and w follow it.
func (s *Store) nodeElem(x, y, z int) int {
	t, nt := s.tile, s.blockSide()/s.tile
	tile := (z/t*nt+y/t)*nt + x/t
	return velChannels * (((tile*t+z%t)*t+y%t)*t + x%t)
}

// BlockBytes returns the stored velocity blob size per block, header
// included — the bytes a whole-blob fetch reads.
func (s *Store) BlockBytes() int {
	m := s.blockSide()
	return len(s.header) + 8*velChannels*m*m*m
}

// cubeKey returns the clustered key of (step, cube coords).
func (s *Store) cubeKey(step, cx, cy, cz int) (int64, error) {
	code, err := sfc.Encode3D(uint32(cx), uint32(cy), uint32(cz))
	if err != nil {
		return 0, err
	}
	return keyFor(step, code), nil
}
