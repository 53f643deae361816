package spectra

import (
	"fmt"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// This file is the storage glue: spectra persist as array blobs in an
// engine table with the schema the paper sketches — one row per
// spectrum, the wavelength/flux/error vectors as float64 arrays and the
// flag vector as a 16-bit integer array ("usually a vector of 8 or 16
// bit integers").

// Store wraps the spectrum table.
type Store struct {
	db    *engine.DB
	table *engine.Table
}

// CreateStore builds the spectrum table.
func CreateStore(db *engine.DB, name string) (*Store, error) {
	schema, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "z", Type: engine.ColFloat64},
		engine.Column{Name: "wave", Type: engine.ColVarBinaryMax},
		engine.Column{Name: "flux", Type: engine.ColVarBinaryMax},
		engine.Column{Name: "err", Type: engine.ColVarBinaryMax},
		engine.Column{Name: "flags", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		return nil, err
	}
	table, err := db.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	return &Store{db: db, table: table}, nil
}

// Table exposes the underlying engine table.
func (st *Store) Table() *engine.Table { return st.table }

// Insert persists a spectrum as four array blobs.
func (st *Store) Insert(s *Spectrum) error {
	if err := s.Validate(); err != nil {
		return err
	}
	n := len(s.Wave)
	wave, err := core.FromFloat64s(core.Max, core.Float64, s.Wave, n)
	if err != nil {
		return err
	}
	flux, err := core.FromFloat64s(core.Max, core.Float64, s.Flux, n)
	if err != nil {
		return err
	}
	errs, err := core.FromFloat64s(core.Max, core.Float64, s.Err, n)
	if err != nil {
		return err
	}
	flags, err := core.FromInt64s(core.Max, core.Int16, s.Flags, n)
	if err != nil {
		return err
	}
	return st.table.Insert([]engine.Value{
		engine.IntValue(s.ID),
		engine.FloatValue(s.Z),
		engine.BinaryMaxValue(wave.Bytes()),
		engine.BinaryMaxValue(flux.Bytes()),
		engine.BinaryMaxValue(errs.Bytes()),
		engine.BinaryMaxValue(flags.Bytes()),
	})
}

// Get loads a spectrum by id. Row and arrays are read through one
// snapshot, so they belong to one commit even under concurrent UPDATEs.
func (st *Store) Get(id int64) (*Spectrum, error) { return st.read(id, 0, -1) }

// GetSlice loads only samples [lo, hi) of a spectrum — the "cutting out
// small regions around the interesting spectral lines" access pattern
// (§2.2) — reading just the blob chunks those samples live on instead of
// materializing the four full arrays. Flags are included; Z and ID come
// from the row as usual. One snapshot, as in Get.
func (st *Store) GetSlice(id int64, lo, hi int) (*Spectrum, error) {
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("spectra: bad slice [%d,%d)", lo, hi)
	}
	return st.read(id, lo, hi)
}

// read is Get (hi < 0: every sample) and GetSlice (samples [lo, hi)).
// Each MAX column is read with one ArrayReader.Read, which validates the
// header and copies only the chunk pages the samples lie on into the
// payload of a scratch array, and is then decoded once into the
// result's own slice. The scratch is reused from column to column while
// element type and length match (wave, flux and err), so no result
// aliases it.
func (st *Store) read(id int64, lo, hi int) (*Spectrum, error) {
	snap := st.db.Snapshot()
	defer snap.Release()
	row, err := st.table.GetAt(snap, id)
	if err != nil {
		return nil, err
	}
	s := &Spectrum{ID: id, Z: row[1].F}
	var (
		scratch *core.Array
		runs    []core.Run // Get's one whole-payload run serves all four columns
	)
	readCol := func(col int, elemOK func(core.ElemType) bool) error {
		err := st.table.ArrayAt(snap, row[col].B).Read(func(h core.Header) (_ []byte, _ []core.Run, err error) {
			if !elemOK(h.Elem) {
				return nil, nil, fmt.Errorf("%w: column %d holds %s", core.ErrTypeMismatch, col, h.Elem)
			}
			n := h.Count()
			if hi < 0 {
				runs = append(runs[:0], core.Run{Len: h.DataBytes()})
			} else {
				n = hi - lo
				if runs, err = core.SubarrayPlan(h, []int{lo}, []int{n}); err != nil {
					return nil, nil, err
				}
			}
			if scratch == nil || scratch.ElemType() != h.Elem || scratch.Len() != n {
				if scratch, err = core.New(core.Max, h.Elem, n); err != nil {
					return nil, nil, err
				}
			}
			return scratch.Payload(), runs, nil
		})
		if err != nil {
			return fmt.Errorf("spectra: reading column %d: %w", col, err)
		}
		return nil
	}
	isFloat64 := func(et core.ElemType) bool { return et == core.Float64 }
	for i, dst := range []*[]float64{&s.Wave, &s.Flux, &s.Err} {
		if err := readCol(2+i, isFloat64); err != nil {
			return nil, err
		}
		*dst = scratch.Float64s()
	}
	if err := readCol(5, core.ElemType.IsInteger); err != nil {
		return nil, err
	}
	s.Flags = scratch.Int64s()
	return s, nil
}
