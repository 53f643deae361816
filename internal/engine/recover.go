package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"sqlarray/internal/btree"
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
	var pending []pageImg
	logged := make(map[string]walTableState)
	order := []string{} // stable application order for table rebuild
	var lastGood wal.LSN
	upsert := func(st walTableState) error {
		prev, ok := logged[st.Name]
		if !ok {
			if len(st.Cols) == 0 {
				return fmt.Errorf("catalog delta for unknown table %q", st.Name)
			}
			order = append(order, st.Name)
			logged[st.Name] = st
			return nil
		}
		if len(st.Cols) == 0 { // state-only delta: keep the known schema
			st.Cols, st.Key = prev.Cols, prev.Key
		}
		logged[st.Name] = st
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
			logged = make(map[string]walTableState)
			order = order[:0]
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
			id := pages.PageID(binary.LittleEndian.Uint32(payload))
			img := append([]byte(nil), payload[4:]...)
			pending = append(pending, pageImg{id: id, img: img})
		case wal.RecPagePrefix:
			// Truncated after-image (blob/free pages): header + used body
			// bytes; the writer zeroed the tail before checksumming, so
			// zero-extension reconstructs the page byte-exactly.
			if len(payload) < 4+pages.HeaderSize || len(payload) > 4+pages.PageSize {
				return fmt.Errorf("page prefix record at LSN %d has %d bytes", lsn, len(payload))
			}
			id := pages.PageID(binary.LittleEndian.Uint32(payload))
			img := make([]byte, pages.PageSize)
			copy(img, payload[4:])
			pending = append(pending, pageImg{id: id, img: img})
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
	// Rebuild the catalog: attach each table to its recovered B-tree.
	// Tag-0 pages are visible to every snapshot, so the recovered
	// catalog is too.
	cat := &catalog{}
	for i, name := range order {
		st := logged[name]
		schema, err := schemaFromWAL(st)
		if err != nil {
			return err
		}
		t := &Table{
			db:        db,
			name:      name,
			schema:    schema,
			slot:      i,
			tree:      btree.Open(db.bp, pages.PageID(st.Root), st.Height, st.Count),
			rowBytes:  st.RowBytes,
			blobBytes: st.BlobBytes,
		}
		cat.tables = append(cat.tables, t.live())
	}
	db.cat.Store(cat)
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
