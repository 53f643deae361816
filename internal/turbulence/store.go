package turbulence

import (
	"fmt"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/sfc"
)

// Store is the turbulence database: one row per (cube+2g)³ sub-cube,
// clustered on (timestep, z-index) so spatially adjacent cubes are
// adjacent on disk (§2.1: "partitioned along a space filling curve
// (z-index) into cubes of (64+8)³ ... Each blob is ... stored in a
// separate row"). A row holds the cube in two MAX columns: blob, the
// velocity as a (3, m, m, m) array (a node's u, v, w adjacent), and p,
// the pressure as an (m, m, m) array. The service interpolates velocity
// only, so no read of it moves a byte of pressure.
type Store struct {
	db    *engine.DB
	table *engine.Table
	n     int // full grid side
	cube  int // sub-cube side without ghosts
	ghost int // ghost-zone width on each face
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
	h := s.blockHeader()
	if hs := h.EncodedSize(); hs%8 != 0 {
		// readStencil decodes float64s in place off 8-byte-aligned segments.
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
func (s *Store) AddSnapshot(step int, f *Field) error {
	if f.N != s.n {
		return fmt.Errorf("turbulence: snapshot grid %d != store grid %d", f.N, s.n)
	}
	nc := s.n / s.cube
	rows := make([][]engine.Value, 0, nc*nc*nc)
	for cz := 0; cz < nc; cz++ {
		for cy := 0; cy < nc; cy++ {
			for cx := 0; cx < nc; cx++ {
				code, err := sfc.Encode3D(uint32(cx), uint32(cy), uint32(cz))
				if err != nil {
					return err
				}
				vel, p, err := s.packBlock(f, cx, cy, cz)
				if err != nil {
					return err
				}
				rows = append(rows, []engine.Value{
					engine.IntValue(keyFor(step, code)),
					engine.BinaryMaxValue(vel.Bytes()),
					engine.BinaryMaxValue(p.Bytes()),
				})
			}
		}
	}
	_, err := s.table.BulkLoad(engine.NewValuesSource(rows), engine.BulkOptions{})
	return err
}

// packBlock builds the (3, m, m, m) velocity and (m, m, m) pressure max
// arrays for one sub-cube, including ghost zones copied from periodic
// neighbours.
func (s *Store) packBlock(f *Field, cx, cy, cz int) (vel, p *core.Array, err error) {
	m := s.blockSide()
	if vel, err = core.New(core.Max, core.Float64, velChannels, m, m, m); err != nil {
		return nil, nil, err
	}
	if p, err = core.New(core.Max, core.Float64, m, m, m); err != nil {
		return nil, nil, err
	}
	x0 := cx*s.cube - s.ghost
	y0 := cy*s.cube - s.ghost
	z0 := cz*s.cube - s.ghost
	// Column-major with dims (3,m,m,m): a node's u, v, w are the three
	// adjacent elements from 3·node, so the nodes of a stencil's x-row
	// are one contiguous run.
	for lz := 0; lz < m; lz++ {
		for ly := 0; ly < m; ly++ {
			for lx := 0; lx < m; lx++ {
				u, v, w, pr := f.At(x0+lx, y0+ly, z0+lz)
				node := (lz*m+ly)*m + lx
				lin := velChannels * node
				vel.SetFloatAt(lin, u)
				vel.SetFloatAt(lin+1, v)
				vel.SetFloatAt(lin+2, w)
				p.SetFloatAt(node, pr)
			}
		}
	}
	return vel, p, nil
}

// CubeSide returns the partition cube side (without ghosts).
func (s *Store) CubeSide() int { return s.cube }

// Ghost returns the ghost-zone width.
func (s *Store) Ghost() int { return s.ghost }

// blockHeader is the (3, m, m, m) array header every stored velocity
// blob carries.
func (s *Store) blockHeader() core.Header {
	m := s.blockSide()
	return core.Header{Class: core.Max, Elem: core.Float64, Dims: []int{velChannels, m, m, m}}
}

// BlockBytes returns the stored velocity blob size per block, header
// included — the bytes a whole-blob fetch reads.
func (s *Store) BlockBytes() int {
	h := s.blockHeader()
	return h.TotalBytes()
}

// cubeKey returns the clustered key of (step, cube coords).
func (s *Store) cubeKey(step, cx, cy, cz int) (int64, error) {
	code, err := sfc.Encode3D(uint32(cx), uint32(cy), uint32(cz))
	if err != nil {
		return 0, err
	}
	return keyFor(step, code), nil
}

// fetchRef returns the encoded velocity blob ref stored under key, as of
// snap.
func (s *Store) fetchRef(snap *engine.Snapshot, key int64) ([]byte, error) {
	row, err := s.table.GetAt(snap, key)
	if err != nil {
		return nil, fmt.Errorf("turbulence: cube key %d: %w", key, err)
	}
	return row[1].B, nil
}
