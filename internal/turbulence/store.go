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
// separate row").
type Store struct {
	db    *engine.DB
	table *engine.Table
	n     int // full grid side
	cube  int // sub-cube side without ghosts
	ghost int // ghost-zone width on each face
}

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
				arr, err := s.packBlock(f, cx, cy, cz)
				if err != nil {
					return err
				}
				rows = append(rows, []engine.Value{
					engine.IntValue(keyFor(step, code)),
					engine.BinaryMaxValue(arr.Bytes()),
				})
			}
		}
	}
	_, err := s.table.BulkLoad(engine.NewValuesSource(rows), engine.BulkOptions{})
	return err
}

// packBlock builds the (4, m, m, m) max array for one sub-cube,
// including ghost zones copied from periodic neighbours.
func (s *Store) packBlock(f *Field, cx, cy, cz int) (*core.Array, error) {
	m := s.blockSide()
	arr, err := core.New(core.Max, core.Float64, Channels, m, m, m)
	if err != nil {
		return nil, err
	}
	x0 := cx*s.cube - s.ghost
	y0 := cy*s.cube - s.ghost
	z0 := cz*s.cube - s.ghost
	// Column-major with dims (4,m,m,m): a node's u, v, w, p are the four
	// adjacent elements from lin, so the nodes of a stencil's x-row are
	// one contiguous run.
	for lz := 0; lz < m; lz++ {
		for ly := 0; ly < m; ly++ {
			for lx := 0; lx < m; lx++ {
				u, v, w, p := f.At(x0+lx, y0+ly, z0+lz)
				lin := Channels * ((lz*m+ly)*m + lx)
				arr.SetFloatAt(lin, u)
				arr.SetFloatAt(lin+1, v)
				arr.SetFloatAt(lin+2, w)
				arr.SetFloatAt(lin+3, p)
			}
		}
	}
	return arr, nil
}

// CubeSide returns the partition cube side (without ghosts).
func (s *Store) CubeSide() int { return s.cube }

// Ghost returns the ghost-zone width.
func (s *Store) Ghost() int { return s.ghost }

// blockHeader is the (4, m, m, m) array header every stored block carries.
func (s *Store) blockHeader() core.Header {
	m := s.blockSide()
	return core.Header{Class: core.Max, Elem: core.Float64, Dims: []int{Channels, m, m, m}}
}

// BlockBytes returns the stored blob size per block, header included.
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

// fetchRef returns the encoded blob ref stored under key, as of snap.
func (s *Store) fetchRef(snap *engine.Snapshot, key int64) ([]byte, error) {
	row, err := s.table.GetAt(snap, key)
	if err != nil {
		return nil, fmt.Errorf("turbulence: cube key %d: %w", key, err)
	}
	return row[1].B, nil
}
