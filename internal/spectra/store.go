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
func (st *Store) Get(id int64) (*Spectrum, error) {
	snap := st.db.Snapshot()
	defer snap.Release()
	return st.getAt(snap, id)
}

func (st *Store) getAt(snap *engine.Snapshot, id int64) (*Spectrum, error) {
	row, err := st.table.GetAt(snap, id)
	if err != nil {
		return nil, err
	}
	s := &Spectrum{ID: id, Z: row[1].F}
	for i, dst := range []*[]float64{&s.Wave, &s.Flux, &s.Err} {
		raw, err := st.table.ResolveMaxAt(snap, row[2+i].B)
		if err != nil {
			return nil, err
		}
		arr, err := core.Wrap(raw)
		if err != nil {
			return nil, err
		}
		if arr.ElemType() != core.Float64 {
			return nil, fmt.Errorf("%w: column %d holds %s", core.ErrTypeMismatch, 2+i, arr.ElemType())
		}
		*dst = arr.Float64s()
	}
	raw, err := st.table.ResolveMaxAt(snap, row[5].B)
	if err != nil {
		return nil, err
	}
	arr, err := core.Wrap(raw)
	if err != nil {
		return nil, err
	}
	if !arr.ElemType().IsInteger() {
		return nil, fmt.Errorf("%w: flags column holds %s", core.ErrTypeMismatch, arr.ElemType())
	}
	s.Flags = arr.Int64s()
	return s, nil
}

// GetSlice loads only samples [lo, hi) of a spectrum — the "cutting out
// small regions around the interesting spectral lines" access pattern
// (§2.2) — reading just the blob chunks those samples live on instead of
// materializing the four full arrays. Flags are included; Z and ID come
// from the row as usual. One snapshot, as in Get.
func (st *Store) GetSlice(id int64, lo, hi int) (*Spectrum, error) {
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("spectra: bad slice [%d,%d)", lo, hi)
	}
	snap := st.db.Snapshot()
	defer snap.Release()
	row, err := st.table.GetAt(snap, id)
	if err != nil {
		return nil, err
	}
	s := &Spectrum{ID: id, Z: row[1].F}
	offset, size := []int{lo}, []int{hi - lo}
	for i, dst := range []*[]float64{&s.Wave, &s.Flux, &s.Err} {
		arr, err := st.table.ArrayAt(snap, row[2+i].B).Subarray(offset, size, false, nil, core.NewAuto)
		if err != nil {
			return nil, fmt.Errorf("spectra: slicing column %d: %w", 2+i, err)
		}
		if arr.ElemType() != core.Float64 {
			return nil, fmt.Errorf("%w: column %d holds %s", core.ErrTypeMismatch, 2+i, arr.ElemType())
		}
		*dst = arr.Float64s()
	}
	flags, err := st.table.ArrayAt(snap, row[5].B).Subarray(offset, size, false, nil, core.NewAuto)
	if err != nil {
		return nil, fmt.Errorf("spectra: slicing flags: %w", err)
	}
	if !flags.ElemType().IsInteger() {
		return nil, fmt.Errorf("%w: flags column holds %s", core.ErrTypeMismatch, flags.ElemType())
	}
	s.Flags = flags.Int64s()
	return s, nil
}
