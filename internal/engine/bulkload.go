package engine

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"sqlarray/internal/blob"
	"sqlarray/internal/btree"
	"sqlarray/internal/pages"
)

// Bulk ingest: the COPY path. A row-at-a-time INSERT session pays for a
// root descent, copy-on-write of the whole leaf path, a full-page log
// image of every touched page, a commit record, and (by default) an
// fsync — per row. BulkLoad amortizes all of it: rows are staged and
// sorted, blob payloads and row images stream onto freshly allocated
// pages packed full and logged exactly once, the WAL syncs every few
// hundred pages instead of every row, and a single commit record grafts
// the finished leaves onto the table's right spine and publishes the
// catalog delta.
//
// Staging makes no allocation per row. Each row image is appended to
// one arena (fixed-size blocks, never copied as it grows), and the sort
// runs over pointer-free (key, offset, end) entries into it, so neither
// the sort nor the garbage collector walks a slice per row. The arena is
// also the copy the BulkSource contract asks for: a source may reuse its
// row buffer on every Next.
//
// Durability is all-or-nothing without any extra machinery: recovery
// only applies page images that a later commit record covers, so a
// crash mid-load finds an uncommitted tail, truncates it, and the table
// is exactly as it was before the load began. The fresh pages a died
// load may have flushed are unreachable garbage, never visible state.
//
// The load holds the database write lock for its whole duration —
// bulk ingest is still single-writer — but snapshot readers are never
// blocked: phase 1 touches only fresh pages, and phase 2 is an ordinary
// capture-backed commit.

// BulkSource yields rows for a bulk load in schema order. Next returns
// io.EOF after the last row. The row and the bytes its values reference
// need only stay valid until the next call — a source may fill the same
// buffer every time, and the loader copies what it keeps.
type BulkSource interface {
	Next() ([]Value, error)
}

// valuesSource adapts an in-memory row slice to BulkSource.
type valuesSource struct {
	rows [][]Value
	i    int
}

// NewValuesSource returns a BulkSource over rows.
func NewValuesSource(rows [][]Value) BulkSource {
	return &valuesSource{rows: rows}
}

// Next implements BulkSource.
func (s *valuesSource) Next() ([]Value, error) {
	if s.i >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.i]
	s.i++
	return r, nil
}

// BulkOptions tunes a bulk load. The zero value is ready to use.
type BulkOptions struct {
	// SyncEvery is how many freshly written pages are logged between
	// WAL syncs during staging. Each sync makes the pages behind it
	// evictable, bounding the dirty working set; more frequent syncs
	// trade throughput for a smaller bound. Default 256 (2 MB of log).
	SyncEvery int
}

const defaultBulkSyncEvery = 256

// BulkStats reports what a completed load wrote.
type BulkStats struct {
	Rows      int64 // rows ingested
	RowBytes  int64 // on-page row-image bytes
	BlobBytes int64 // out-of-page blob payload bytes
	LeafPages int   // leaf pages written
	BlobPages int   // fresh blob chunk + directory pages written
}

// errBulkOverlap reports a bulk load whose keys are not strictly above
// the table's current maximum. The bulk path writes packed leaves and
// grafts them after the existing rightmost leaf, so it can only append;
// interleaving loads go through INSERT.
var errBulkOverlap = errors.New("engine: bulk load keys must exceed every existing key")

// pendingRow is a staged row: its key and the arena span [off, end) of
// its final on-page image (MAX columns already replaced by blob refs).
type pendingRow struct {
	key      int64
	off, end int
}

// BulkLoad ingests every row src yields into the table and commits them
// as one write session. The table must be empty or every new key must
// be strictly greater than the current maximum key; duplicate keys in
// the source are rejected. On any error the table is left exactly as it
// was (fresh pages already written become unreferenced garbage).
func (t *Table) BulkLoad(src BulkSource, opts BulkOptions) (BulkStats, error) {
	db := t.db
	syncEvery := opts.SyncEvery
	if syncEvery <= 0 {
		syncEvery = defaultBulkSyncEvery
	}

	db.writeMu.Lock()
	locked := true
	defer func() {
		if locked {
			db.writeMu.Unlock()
		}
	}()

	var stats BulkStats

	// The live tree is the writer's view; under writeMu it is stable.
	_, maxOld, nonEmpty, err := t.tree.Bounds()
	if err != nil {
		return stats, err
	}

	// onPage streams every completed fresh page's image into the WAL
	// while the page is still pinned, calling wal.Sync every syncEvery
	// pages so the logged prefix becomes evictable — the load's dirty
	// working set stays bounded no matter how large the ingest is.
	pagesDone := 0
	onPage := func(f *pages.Frame) error {
		pagesDone++
		if db.wal == nil {
			return nil
		}
		if err := db.logFrame(f); err != nil {
			return err
		}
		if pagesDone%syncEvery == 0 {
			return db.wal.Sync()
		}
		return nil
	}

	// Phase 1a: pull and stage rows. Blob payloads (the bulk of the
	// bytes in array workloads) stream to fresh chunk pages immediately
	// — their page order does not depend on key order — while the small
	// row images accumulate for the sort.
	arena, pending, err := t.stageRows(src, onPage, &stats)
	if err != nil {
		return stats, err
	}
	if len(pending) == 0 {
		return stats, nil
	}

	// Phase 1b: sort by key, reject duplicates and overlap. The bulk
	// path is append-only: packed leaves graft after the current
	// rightmost leaf, so every new key must clear the old maximum.
	slices.SortFunc(pending, func(a, b pendingRow) int { return cmp.Compare(a.key, b.key) })
	for i := 1; i < len(pending); i++ {
		if pending[i].key == pending[i-1].key {
			return stats, fmt.Errorf("%w: %d", btree.ErrDuplicate, pending[i].key)
		}
	}
	if nonEmpty && pending[0].key <= maxOld {
		return stats, fmt.Errorf("%w: new key %d <= existing max %d",
			errBulkOverlap, pending[0].key, maxOld)
	}

	// Phase 1c: pack the sorted stream into fresh leaves, logged as
	// they complete. Into an empty table the first leaf is packed for
	// the empty root leaf and logged by the commit that installs it.
	stats.BlobPages = pagesDone
	lw, err := t.tree.NewLeafWriter(onPage)
	if err != nil {
		return stats, err
	}
	for _, pr := range pending {
		if err := lw.Add(pr.key, arena.row(pr.off, pr.end)); err != nil {
			lw.Abandon()
			return stats, err
		}
	}
	if stats.LeafPages, err = lw.Finish(); err != nil {
		return stats, err
	}

	// Phase 2: graft the leaves onto the tree and commit. This is an
	// ordinary capture-backed session — the right-spine pages it COWs
	// are logged by Commit, the single commit record carries the
	// catalog delta, and publish flips snapshot visibility atomically.
	tx, err := db.beginTxLocked()
	if err != nil {
		return stats, err
	}
	locked = false // the session owns the unlock now
	tx.touch(t)
	if err := t.tree.GraftAppend(lw); err != nil {
		tx.Abort()
		return stats, err
	}
	t.rowBytes.Add(stats.RowBytes)
	t.blobBytes.Add(stats.BlobBytes)
	if err := tx.Commit(); err != nil {
		return stats, err
	}
	db.m.bulkLoads.Inc()
	db.m.bulkRows.Add(uint64(stats.Rows))
	db.m.bulkLeafPages.Add(uint64(stats.LeafPages))
	db.m.bulkBlobPages.Add(uint64(stats.BlobPages))
	return stats, nil
}

// stageRows drains src: MAX columns are written to fresh blob pages and
// replaced by their refs, and the row image is appended to the arena it
// returns with one pending entry per row. Keys are pre-checked against
// nothing here — ordering and overlap are the caller's phase 1b.
func (t *Table) stageRows(src BulkSource, onPage func(*pages.Frame) error, stats *BulkStats) (*rowArena, []pendingRow, error) {
	db := t.db
	cols := t.schema.Columns
	var (
		arena   rowArena
		pending []pendingRow
		// stored and refs are the one row of values (MAX columns swapped
		// for their refs) that every row with a MAX payload reuses.
		stored = make([]Value, len(cols))
		refs   = make([]byte, len(cols)*blob.RefSize)
	)
	for {
		vals, err := src.Next()
		if errors.Is(err, io.EOF) {
			return &arena, pending, nil
		}
		if err != nil {
			return nil, nil, err
		}
		if len(vals) != len(cols) {
			return nil, nil, fmt.Errorf("%w: %d values for %d columns",
				ErrTypeError, len(vals), len(cols))
		}
		key, err := vals[t.schema.Key].AsInt()
		if err != nil {
			return nil, nil, fmt.Errorf("engine: clustered key: %w", err)
		}
		row, swapped := vals, false
		for i := range cols {
			if cols[i].Type != ColVarBinaryMax || vals[i].IsNull() {
				continue
			}
			if !swapped {
				copy(stored, vals)
				row, swapped = stored, true
			}
			ref, err := db.blobs.WriteFresh(vals[i].B, codecForBlob(vals[i].B), onPage)
			if err != nil {
				return nil, nil, fmt.Errorf("engine: writing MAX column %q: %w", cols[i].Name, err)
			}
			enc := refs[i*blob.RefSize : (i+1)*blob.RefSize]
			ref.Encode(enc)
			stored[i] = BinaryMaxValue(enc)
			stats.BlobBytes += int64(len(vals[i].B))
		}
		off, end, err := arena.appendRow(&t.schema, row)
		if err != nil {
			return nil, nil, err
		}
		if end-off > btree.MaxValueSize {
			return nil, nil, fmt.Errorf("%w: %d bytes", errRowTooWide, end-off)
		}
		if len(pending) == cap(pending) {
			// Double: append grows a large slice by a quarter at a time.
			pending = slices.Grow(pending, len(pending)+1)
		}
		pending = append(pending, pendingRow{key: key, off: off, end: end})
		stats.Rows++
		stats.RowBytes += int64(end - off)
	}
}

// arenaBlock is the size of the blocks a rowArena stages row images in.
const arenaBlock = 256 << 10

// rowArena stages row images back to back in arenaBlock-sized blocks,
// addressed by offset: block i covers [i*arenaBlock, (i+1)*arenaBlock).
// A row never spans two blocks, and growing the arena copies nothing.
type rowArena struct {
	blocks [][]byte
}

// appendRow encodes one row image into the arena and returns its span
// [off, end).
func (a *rowArena) appendRow(s *Schema, vals []Value) (off, end int, err error) {
	n := len(a.blocks)
	if n == 0 || cap(a.blocks[n-1])-len(a.blocks[n-1]) < btree.MaxValueSize {
		a.blocks = append(a.blocks, make([]byte, 0, arenaBlock))
		n++
	}
	b := a.blocks[n-1]
	start := len(b)
	if b, err = appendRow(b, s, vals); err != nil {
		return 0, 0, err
	}
	a.blocks[n-1] = b
	base := (n - 1) * arenaBlock
	return base + start, base + len(b), nil
}

// row returns the row image staged at [off, end).
func (a *rowArena) row(off, end int) []byte {
	base := off / arenaBlock * arenaBlock
	return a.blocks[off/arenaBlock][off-base : end-base]
}
