package nbody

import (
	"fmt"
	"io"
	"sort"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/octree"
	"sqlarray/internal/sfc"
)

// BucketStore persists a snapshot as array-valued bucket rows: the
// paper's answer to "it does not seem feasible to store the particle
// data broken down into individual rows" (§2.3). Particles are grouped
// by an octree, buckets are ordered along the z-curve, and each row
// carries three arrays (ids, positions, velocities).
type BucketStore struct {
	db    *engine.DB
	table *engine.Table
}

// CreateBucketStore builds the bucket table and ingests the snapshot
// with the given bucket capacity.
func CreateBucketStore(db *engine.DB, name string, snap *Snapshot, bucketSize int) (*BucketStore, error) {
	schema, err := engine.NewSchema(
		engine.Column{Name: "bkey", Type: engine.ColInt64},
		engine.Column{Name: "ids", Type: engine.ColVarBinaryMax},
		engine.Column{Name: "pos", Type: engine.ColVarBinaryMax},
		engine.Column{Name: "vel", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		return nil, err
	}
	table, err := db.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	bs := &BucketStore{db: db, table: table}
	if err := bs.AddSnapshot(snap, bucketSize); err != nil {
		return nil, err
	}
	return bs, nil
}

// bucket is one octree leaf pending storage. Each point's ID is the
// index of its particle in the snapshot, not the particle's ID, so
// particles that share an ID stay distinct.
type bucket struct {
	zcode uint64
	pts   []octree.Point
}

// AddSnapshot bucketizes and stores one snapshot. Row keys are
// (step << 44) | zOrderRank so a snapshot scan walks the z-curve.
func (bs *BucketStore) AddSnapshot(snap *Snapshot, bucketSize int) error {
	if bucketSize < 1 {
		return fmt.Errorf("nbody: bucket size %d", bucketSize)
	}
	tree := octree.New(bucketSize)
	for i := range snap.Particles {
		p := &snap.Particles[i]
		if err := tree.Insert(octree.Point{X: p.Pos[0], Y: p.Pos[1], Z: p.Pos[2], ID: int64(i)}); err != nil {
			return err
		}
	}
	var buckets []bucket
	tree.Buckets(func(x0, y0, z0, size float64, pts []octree.Point) bool {
		const res = 1 << 20
		code, err := sfc.Encode3D(uint32(x0*res), uint32(y0*res), uint32(z0*res))
		if err != nil {
			code = 0
		}
		buckets = append(buckets, bucket{zcode: code, pts: pts})
		return true
	})
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].zcode < buckets[j].zcode })
	// One bulk commit per snapshot: keys ascend with the z-curve rank, so
	// the loader packs leaves straight off the source. Each bucket's
	// arrays are encoded only when the loader asks for its row.
	var row [4]engine.Value
	rank := 0
	_, err := bs.table.BulkLoad(rowsFunc(func() ([]engine.Value, error) {
		if rank == len(buckets) {
			return nil, io.EOF
		}
		if err := encodeBucket(row[1:], snap.Particles, buckets[rank].pts); err != nil {
			return nil, err
		}
		row[0] = engine.IntValue(int64(snap.Step)<<44 | int64(rank))
		rank++
		return row[:], nil
	}), engine.BulkOptions{})
	return err
}

// rowsFunc adapts a function that fills and returns one reused row to
// engine.BulkSource.
type rowsFunc func() ([]engine.Value, error)

// Next implements engine.BulkSource.
func (f rowsFunc) Next() ([]engine.Value, error) { return f() }

// encodeBucket packs the particles pts index into the three array blobs
// dst[0:3]: ids as a bigint vector, pos and vel as (n, 3) float64 arrays.
func encodeBucket(dst []engine.Value, parts []Particle, pts []octree.Point) error {
	n := len(pts)
	ids := make([]int64, n)
	pos := make([]float64, n*3)
	vel := make([]float64, n*3)
	for i, pt := range pts {
		p := &parts[pt.ID]
		ids[i] = p.ID
		for d := 0; d < 3; d++ {
			// Column-major (n,3): element (i,d) at i + d*n.
			pos[i+d*n] = p.Pos[d]
			vel[i+d*n] = p.Vel[d]
		}
	}
	idArr, err := core.FromInt64s(core.Max, core.Int64, ids, n)
	if err != nil {
		return err
	}
	posArr, err := core.FromFloat64s(core.Max, core.Float64, pos, n, 3)
	if err != nil {
		return err
	}
	velArr, err := core.FromFloat64s(core.Max, core.Float64, vel, n, 3)
	if err != nil {
		return err
	}
	dst[0] = engine.BinaryMaxValue(idArr.Bytes())
	dst[1] = engine.BinaryMaxValue(posArr.Bytes())
	dst[2] = engine.BinaryMaxValue(velArr.Bytes())
	return nil
}

// Table exposes the bucket table.
func (bs *BucketStore) Table() *engine.Table { return bs.table }

// LoadSnapshot reassembles the particles of one step (order follows the
// z-curve, not particle ID). Rows and blobs are read through one engine
// snapshot, so the result is one committed state of the step.
func (bs *BucketStore) LoadSnapshot(step int) (*Snapshot, error) {
	view := bs.db.Snapshot()
	defer view.Release()
	cur, err := bs.table.CursorRangeAt(view, int64(step)<<44, int64(step+1)<<44-1)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	snap := &Snapshot{Step: step}
	var keys [64]int64
	var ids, pos, vel engine.Vector
	cols := []*engine.Vector{nil, &ids, &pos, &vel}
	for {
		n, err := cur.FillBatch(keys[:], cols, nil)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return snap, nil
		}
		for i := 0; i < n; i++ {
			parts, err := bs.decodeBucket(view, cols[1:], i)
			if err != nil {
				return nil, err
			}
			snap.Particles = append(snap.Particles, parts...)
		}
	}
}

// decodeBucket reads the particles of row i of a filled batch, whose
// refs holds the bucket's ids, pos and vel blob refs.
func (bs *BucketStore) decodeBucket(view *engine.Snapshot, refs []*engine.Vector, i int) ([]Particle, error) {
	arrs := make([]*core.Array, 3)
	for c, v := range refs {
		if v.IsNull(i) {
			return nil, fmt.Errorf("nbody: bucket column %d is NULL", 1+c)
		}
		raw, err := bs.table.ResolveMaxAt(view, v.B[i])
		if err != nil {
			return nil, err
		}
		a, err := core.Wrap(raw)
		if err != nil {
			return nil, err
		}
		arrs[c] = a
	}
	n := arrs[0].Len()
	if arrs[1].Rank() != 2 || arrs[1].Dim(0) != n || arrs[2].Dim(0) != n {
		return nil, fmt.Errorf("nbody: inconsistent bucket arrays")
	}
	out := make([]Particle, n)
	for i := 0; i < n; i++ {
		out[i].ID = arrs[0].IntAt(i)
		for d := 0; d < 3; d++ {
			out[i].Pos[d] = arrs[1].FloatAt(i + d*n)
			out[i].Vel[d] = arrs[2].FloatAt(i + d*n)
		}
	}
	return out, nil
}

// RowStore is the strawman the paper rejects: one row per particle per
// snapshot. Implemented for the storage comparison (E12).
type RowStore struct {
	table *engine.Table
}

// CreateRowStore ingests a snapshot row by row.
func CreateRowStore(db *engine.DB, name string, snap *Snapshot) (*RowStore, error) {
	schema, err := engine.NewSchema(
		engine.Column{Name: "pid", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
		engine.Column{Name: "y", Type: engine.ColFloat64},
		engine.Column{Name: "z", Type: engine.ColFloat64},
		engine.Column{Name: "vx", Type: engine.ColFloat64},
		engine.Column{Name: "vy", Type: engine.ColFloat64},
		engine.Column{Name: "vz", Type: engine.ColFloat64},
	)
	if err != nil {
		return nil, err
	}
	table, err := db.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	// Every particle's row goes through the same buffer.
	var row [7]engine.Value
	i := 0
	_, err = table.BulkLoad(rowsFunc(func() ([]engine.Value, error) {
		if i == len(snap.Particles) {
			return nil, io.EOF
		}
		p := &snap.Particles[i]
		i++
		row = [7]engine.Value{
			engine.IntValue(int64(snap.Step)<<44 | p.ID),
			engine.FloatValue(p.Pos[0]), engine.FloatValue(p.Pos[1]), engine.FloatValue(p.Pos[2]),
			engine.FloatValue(p.Vel[0]), engine.FloatValue(p.Vel[1]), engine.FloatValue(p.Vel[2]),
		}
		return row[:], nil
	}), engine.BulkOptions{})
	if err != nil {
		return nil, err
	}
	return &RowStore{table: table}, nil
}

// Table exposes the per-particle table.
func (rs *RowStore) Table() *engine.Table { return rs.table }
