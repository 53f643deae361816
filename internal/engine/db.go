package engine

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"sqlarray/internal/blob"
	"sqlarray/internal/btree"
	"sqlarray/internal/obs"
	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// DB is a database instance: a buffer pool over one disk file, a blob
// store for out-of-page data, a table catalog, a function registry and
// (optionally) a write-ahead log that makes DML durable and the
// database recoverable after a crash.
type DB struct {
	writeMu sync.Mutex // serializes write sessions (single-writer engine)
	// rowBuf is the write session's row-image buffer: InsertTx encodes
	// into it and the tree copies the row onto its page, so no row
	// image outlives the insert. Guarded by writeMu.
	rowBuf []byte
	// pubMu pairs a commit's clock tick with its catalog swap, and a
	// snapshot's tag with its catalog, so both come from one commit.
	pubMu sync.Mutex
	cat   atomic.Pointer[catalog] // the newest committed catalog
	bp    *pages.BufferPool
	blobs *blob.Store
	funcs *FuncRegistry

	wal *wal.Log

	reg *obs.Registry
	m   dbMetrics
}

// dbMetrics is the engine-level counter block: DML row counts, write
// sessions, checkpoints and the bulk loader's page/row totals. Like
// every other counter island these are obs handles attached to the
// database's registry, so they show up in per-query trace deltas and
// on the HTTP export alongside the pool/blob/WAL counters.
type dbMetrics struct {
	rowsInserted  obs.Counter
	rowsUpdated   obs.Counter
	rowsDeleted   obs.Counter
	commits       obs.Counter
	aborts        obs.Counter
	checkpoints   obs.Counter
	bulkLoads     obs.Counter
	bulkRows      obs.Counter
	bulkLeafPages obs.Counter
	bulkBlobPages obs.Counter
	snapshots     obs.Gauge // currently open MVCC snapshots
}

func (m *dbMetrics) register(reg *obs.Registry) {
	reg.Attach("engine.rows_inserted", &m.rowsInserted)
	reg.Attach("engine.rows_updated", &m.rowsUpdated)
	reg.Attach("engine.rows_deleted", &m.rowsDeleted)
	reg.Attach("engine.commits", &m.commits)
	reg.Attach("engine.aborts", &m.aborts)
	reg.Attach("engine.checkpoints", &m.checkpoints)
	reg.Attach("engine.bulk_loads", &m.bulkLoads)
	reg.Attach("engine.bulk_rows", &m.bulkRows)
	reg.Attach("engine.bulk_leaf_pages", &m.bulkLeafPages)
	reg.Attach("engine.bulk_blob_pages", &m.bulkBlobPages)
	reg.AttachGauge("engine.open_snapshots", &m.snapshots)
}

// Options configures a database.
type Options struct {
	// Disk backs the database; defaults to an in-memory disk.
	Disk pages.DiskManager
	// PoolPages sizes the buffer pool; defaults to 16384 frames (128 MB).
	PoolPages int
	// WAL attaches a write-ahead log. On Open the log's committed tail
	// is replayed into the disk (crash recovery) and the catalog is
	// rebuilt from the log; afterward every write session logs page
	// after-images before the pool may flush them. Nil disables
	// durability (the seed behavior).
	WAL *wal.Log
	// Metrics attaches the database to an existing obs.Registry instead
	// of a private one. Partitioned stores open every member against one
	// shared registry so member I/O folds into the same series — the fix
	// for scatter queries undercounting in sqlsh `.stats`.
	Metrics *obs.Registry
}

// Open creates a database over opts, running crash recovery first when
// a WAL is attached: committed page images since the last checkpoint
// are replayed into the disk, the table catalog is rebuilt from
// checkpoint and commit records, and any uncommitted log tail is
// truncated.
func Open(opts Options) (*DB, error) {
	if opts.Disk == nil {
		opts.Disk = pages.NewMemDisk()
	}
	if opts.PoolPages <= 0 {
		opts.PoolPages = 16384
	}
	bp := pages.NewBufferPool(opts.Disk, opts.PoolPages)
	db := &DB{
		bp:    bp,
		blobs: blob.NewStore(bp),
		funcs: newFuncRegistry(),
		wal:   opts.WAL,
	}
	db.cat.Store(&catalog{})
	db.reg = opts.Metrics
	if db.reg == nil {
		db.reg = obs.New()
	}
	bp.RegisterMetrics(db.reg)
	db.blobs.RegisterMetrics(db.reg)
	db.m.register(db.reg)
	db.funcs.registerMetrics(db.reg)
	if db.wal != nil {
		db.wal.RegisterMetrics(db.reg)
		if err := db.recover(); err != nil {
			return nil, fmt.Errorf("engine: recovery: %w", err)
		}
		bp.SetWAL(db.wal)
	}
	return db, nil
}

// Metrics returns the database's metrics registry (never nil). All
// subsystem counters — pool, blob store, WAL, engine DML — are
// registered here; obs.Handler serves it over HTTP.
func (db *DB) Metrics() *obs.Registry { return db.reg }

// Pool exposes the buffer pool. Its I/O counters are read through
// Metrics.
func (db *DB) Pool() *pages.BufferPool { return db.bp }

// Blobs exposes the blob store.
func (db *DB) Blobs() *blob.Store { return db.blobs }

// Funcs exposes the UDF registry.
func (db *DB) Funcs() *FuncRegistry { return db.funcs }

// WAL returns the attached write-ahead log, or nil.
func (db *DB) WAL() *wal.Log { return db.wal }

// CreateTable registers a new table with the given schema. The creation
// (root page and schema) is logged like any other statement.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	tx, err := db.Begin()
	if err != nil {
		return nil, err
	}
	t, err := db.CreateTableTx(tx, name, schema)
	return t, tx.Close(err)
}

// CreateTableTx is CreateTable inside an existing write session. The
// table joins the session's catalog: db.Table and snapshots see it once
// the session commits, and an abort leaves no trace of it.
func (db *DB) CreateTableTx(tx *Tx, name string, schema Schema) (*Table, error) {
	cat := tx.touch()
	if cat.lookup(name) != nil {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	tree, err := btree.New(db.bp)
	if err != nil {
		return nil, err
	}
	t := &Table{db: db, name: name, schema: schema, slot: len(cat.tables), tree: tree}
	cat.tables = append(cat.tables, t.live())
	return t, nil
}

// Table looks a table up by name in the newest committed catalog.
func (db *DB) Table(name string) (*Table, error) {
	t := db.cat.Load().lookup(name)
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// DropCleanBuffers clears the page cache, as the paper does before each
// measured query run.
func (db *DB) DropCleanBuffers() error { return db.bp.DropCleanBuffers() }

// Checkpoint bounds future recovery: it syncs the WAL, flushes every
// dirty page to the database file (each flush is legal because its log
// record is durable), fsyncs the database file, and only then appends a
// checkpoint record carrying a full catalog snapshot, so recovery never
// skips a record whose pages are not on disk. Old log segments that no
// recovery can need are pruned. Without a WAL it is a flush and an
// fsync.
func (db *DB) Checkpoint() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.bp.FlushAll(); err != nil {
		return err
	}
	if err := db.bp.Disk().Sync(); err != nil {
		return err
	}
	if db.wal == nil {
		db.m.checkpoints.Inc()
		return nil
	}
	payload, err := json.Marshal(db.cat.Load().walCatalog())
	if err != nil {
		return err
	}
	if _, err := db.wal.Checkpoint(payload); err != nil {
		return err
	}
	db.m.checkpoints.Inc()
	return nil
}

// walCatalog is the checkpoint record's payload: every table's entry
// with its schema, in creation order.
func (c *catalog) walCatalog() walCatalog {
	var cat walCatalog
	for _, st := range c.tables {
		cat.Tables = append(cat.Tables, st.walState(true))
	}
	return cat
}
