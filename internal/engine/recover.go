package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// Crash recovery: replay the WAL's committed tail into the database
// file and rebuild the table catalog.
//
// The log stream since the last checkpoint looks like
//
//	[checkpoint: catalog snapshot]
//	page page page ... commit{catalog delta}
//	page ...           commit{...}
//	page page                         <- uncommitted tail (crash)
//
// Replay groups page images by their trailing commit record: a group is
// applied to the disk only when its commit record survived, so a crash
// mid-statement leaves no partial effects. Page images are full
// after-images applied in log order — idempotent, so it does not matter
// which of them had already reached the database file before the crash
// (including a torn page write: the logged image simply overwrites the
// torn bytes). The uncommitted tail is then truncated so future appends
// cannot merge with half a statement.
func (db *DB) recover() error {
	l := db.wal
	type pageImg struct {
		id  pages.PageID
		img []byte
	}
	// pending is the current commit group's images. The payload Recover
	// hands over is valid only during the callback, so each image is
	// copied into a slot's buffer; a slot keeps its buffer when the
	// group is applied, and the next group reuses it.
	var pending []pageImg
	nextImg := func(id pages.PageID) []byte {
		pending = slices.Grow(pending, 1)[:len(pending)+1]
		p := &pending[len(pending)-1]
		if p.img == nil {
			p.img = make([]byte, pages.PageSize)
		}
		p.id = id
		return p.img
	}
	// tables is the catalog being rebuilt, in creation order; slots maps
	// a name to its entry. A delta that introduces a table carries its
	// schema, and a state-only delta updates the known entry.
	var tables []tableState
	slots := make(map[string]int)
	var lastGood wal.LSN
	upsert := func(st walTableState) error {
		i, ok := slots[st.Name]
		if !ok {
			schema, err := schemaFromWAL(st) // fails on a state-only delta
			if err != nil {
				return err
			}
			i = len(tables)
			slots[st.Name] = i
			tables = append(tables, tableState{t: &Table{db: db, name: st.Name, schema: schema, slot: i}})
		}
		e := &tables[i]
		e.root, e.height, e.count = pages.PageID(st.Root), st.Height, st.Count
		e.rowBytes, e.blobBytes = st.RowBytes, st.BlobBytes
		return nil
	}
	err := l.Recover(func(lsn wal.LSN, typ wal.RecordType, payload []byte) error {
		end := lsn + wal.FrameSize(len(payload))
		switch typ {
		case wal.RecCheckpoint:
			var snap walCatalog
			if err := json.Unmarshal(payload, &snap); err != nil {
				return fmt.Errorf("checkpoint record at LSN %d: %w", lsn, err)
			}
			tables, slots = nil, make(map[string]int)
			for _, st := range snap.Tables {
				if err := upsert(st); err != nil {
					return err
				}
			}
			pending = pending[:0]
			lastGood = end
		case wal.RecPageImage:
			if len(payload) != 4+pages.PageSize {
				return fmt.Errorf("page record at LSN %d has %d bytes", lsn, len(payload))
			}
			copy(nextImg(pages.PageID(binary.LittleEndian.Uint32(payload))), payload[4:])
		case wal.RecPagePrefix:
			// Truncated after-image (blob/free pages): header + used body
			// bytes; the writer zeroed the tail before checksumming, so
			// zero-extension reconstructs the page byte-exactly.
			if len(payload) < 4+pages.HeaderSize || len(payload) > 4+pages.PageSize {
				return fmt.Errorf("page prefix record at LSN %d has %d bytes", lsn, len(payload))
			}
			img := nextImg(pages.PageID(binary.LittleEndian.Uint32(payload)))
			clear(img[copy(img, payload[4:]):])
		case wal.RecCommit:
			var delta walCatalog
			if err := json.Unmarshal(payload, &delta); err != nil {
				return fmt.Errorf("commit record at LSN %d: %w", lsn, err)
			}
			for _, p := range pending {
				if err := db.writeRecoveredPage(p.id, p.img); err != nil {
					return err
				}
			}
			pending = pending[:0]
			for _, st := range delta.Tables {
				if err := upsert(st); err != nil {
					return err
				}
			}
			lastGood = end
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := l.TruncateTo(lastGood); err != nil {
		return err
	}
	// Tag-0 pages are visible to every snapshot, so the recovered
	// catalog is too.
	db.cat.Store(&catalog{tables: tables})
	return nil
}

// writeRecoveredPage applies one page after-image directly to the disk,
// extending the file if the crash happened before the allocation's
// contents ever reached it.
func (db *DB) writeRecoveredPage(id pages.PageID, img []byte) error {
	disk := db.bp.Disk()
	for int(id) >= disk.NumPages() {
		if _, err := disk.Allocate(); err != nil {
			return err
		}
	}
	return disk.WritePage(id, img)
}

// schemaFromWAL decodes a logged table schema.
func schemaFromWAL(st walTableState) (Schema, error) {
	cols := make([]Column, len(st.Cols))
	for i, c := range st.Cols {
		ct := ColType(c.Type)
		switch ct {
		case ColInt64, ColFloat64, ColVarBinary, ColVarBinaryMax:
		default:
			return Schema{}, fmt.Errorf("engine: table %q column %q has invalid logged type %d",
				st.Name, c.Name, c.Type)
		}
		cols[i] = Column{Name: c.Name, Type: ct}
	}
	if len(cols) == 0 {
		return Schema{}, fmt.Errorf("engine: table %q recovered without schema", st.Name)
	}
	if st.Key < 0 || st.Key >= len(cols) {
		return Schema{}, fmt.Errorf("engine: table %q key index %d out of range", st.Name, st.Key)
	}
	return Schema{Columns: cols, Key: st.Key}, nil
}
