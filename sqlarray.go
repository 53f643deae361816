// Package sqlarray is a Go reproduction of the array data type for
// relational databases described in Dobos et al., "Array Requirements
// for Scientific Applications and an Implementation for Microsoft SQL
// Server" (EDBT 2011, arXiv:1110.1729).
//
// The library provides:
//
//   - the array blob format itself (header + column-major payload, two
//     storage classes keyed to the 8 kB page size) — package
//     internal/core, re-exported here;
//   - a miniature relational engine (8 kB slotted pages, buffer pool,
//     clustered B+tree tables, out-of-page blob store with partial
//     reads, a CLR-like UDF boundary) and a SQL subset that runs the
//     paper's queries verbatim;
//   - a batch-at-a-time streaming executor: SELECT statements are
//     lowered into an operator pipeline (scan → filter → aggregate or
//     limit → project) that moves column-major batches of ~1024 rows
//     between operators — the scan fills batches straight off B+tree
//     leaves, filters compact them in place through selection vectors,
//     and aggregates consume whole batches. Sargable WHERE conjuncts on
//     the clustered key (id = k, id >= lo AND id <= hi) are pushed into
//     the scan as key ranges, TOP n / LIMIT n clips the scan's batch
//     budget so it stops after n rows, and large aggregate scans
//     partition the key space across goroutines. Query materializes
//     results; QueryRows streams them; ExecOptions sets batch size and
//     parallelism, and carries cancellation, a shared snapshot and
//     tracing;
//   - the T-SQL function surface (FloatArray.Item_1,
//     FloatArrayMax.Subarray, IntArray.Vector_2, ...);
//   - math substrates standing in for LAPACK and FFTW, plus the three
//     scientific use-case packages (turbulence, spectra, nbody);
//   - the paper's evaluation set-up (the Table 1 tables and queries and
//     the §6-7 derived quantities), which bench/ measures.
//
// Quick start:
//
//	db, _ := sqlarray.OpenDatabase(sqlarray.Options{})
//	a := sqlarray.Vector(1, 2, 3, 4, 5)
//	v, _ := a.Item(3) // 4
//	res, _ := db.Query("SELECT FloatArray.Sum(FloatArray.Vector_3(1,2,3)) FROM dual")
package sqlarray

import (
	"errors"
	"fmt"
	"io"

	"sqlarray/internal/arraysugar"
	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/pages"
	"sqlarray/internal/sqlmini"
	"sqlarray/internal/tsql"
)

// Array is the array data type: a validated view over a serialized
// blob (header + column-major payload). See internal/core for the full
// method set: Item, UpdateItem, Subarray, Reshape, Sum, ReduceDim, ...
type Array = core.Array

// Header is the decoded array header.
type Header = core.Header

// ElemType identifies an array's element type.
type ElemType = core.ElemType

// Element types (§3.4 of the paper).
const (
	Int8       = core.Int8
	Int16      = core.Int16
	Int32      = core.Int32
	Int64      = core.Int64
	Float32    = core.Float32
	Float64    = core.Float64
	Complex64  = core.Complex64
	Complex128 = core.Complex128
)

// StorageClass distinguishes on-page short arrays from out-of-page max
// arrays (§3.3).
type StorageClass = core.StorageClass

// Storage classes.
const (
	Short = core.Short
	Max   = core.Max
)

// Re-exported array constructors and helpers.
var (
	// New allocates a zero array of explicit class/type/shape.
	New = core.New
	// NewAuto picks the storage class automatically.
	NewAuto = core.NewAuto
	// Wrap validates and views an existing blob.
	Wrap = core.Wrap
	// Vector builds a float64 vector (short class when it fits).
	Vector = core.Vector
	// IntVector builds an int32 index vector.
	IntVector = core.IntVector
	// Matrix builds an r×c float64 matrix from column-major values.
	Matrix = core.Matrix
	// FromFloat64s / FromInt64s / FromComplex128s build arrays from
	// slices.
	FromFloat64s    = core.FromFloat64s
	FromInt64s      = core.FromInt64s
	FromComplex128s = core.FromComplex128s
	// Parse reads the bracketed text form; Format writes it.
	Parse  = core.Parse
	Format = core.Format
	// Cast prefixes raw bytes with a header (§5.1).
	Cast = core.Cast
	// Elementwise operations.
	Add       = core.Add
	Sub       = core.Sub
	Mul       = core.Mul
	Div       = core.Div
	AXPY      = core.AXPY
	Dot       = core.Dot
	MaskedDot = core.MaskedDot
)

// Result is a materialized query result.
type Result = sqlmini.Result

// Rows is a streaming query result cursor; see QueryRows.
type Rows = sqlmini.Rows

// ExecOptions is a query's execution context and tuning: a cancellation
// context, a caller-owned read snapshot to run against, per-operator
// tracing and the slow-query log, the executor's batch size, and the
// worker count and row threshold of parallel aggregate scans. The zero
// value picks defaults.
type ExecOptions = sqlmini.ExecOptions

// Database is a sqlarray engine instance with the full T-SQL function
// surface registered and a one-row "dual" table for scalar SELECTs.
type Database struct {
	*engine.DB
}

// Options configures a database: its disk (in memory by default), its
// buffer pool size, an optional write-ahead log and metrics registry.
type Options = engine.Options

// OpenDatabase opens a database, recovering from the WAL when one is
// attached: committed DML since the last checkpoint is replayed and the
// uncommitted log tail discarded. The zero Options give an in-memory
// database without a log. A database that survives a restart opens a
// file disk (pages.OpenFileDisk) and a log over a directory
// (wal.Open(wal.NewDirStorage(dir), ...)); cmd/sqlsh -dir does this.
func OpenDatabase(opts Options) (*Database, error) {
	db, err := engine.Open(opts)
	if err != nil {
		return nil, err
	}
	tsql.RegisterAll(db)
	if err := createDual(db); err != nil {
		return nil, fmt.Errorf("sqlarray: create dual: %w", err)
	}
	return &Database{DB: db}, nil
}

// createDual creates and seeds the one-row dual table in one write
// session, so a crash leaves either both or neither. A recovered
// database already has it.
func createDual(db *engine.DB) error {
	s, err := engine.NewSchema(engine.Column{Name: "id", Type: engine.ColInt64})
	if err != nil {
		return err
	}
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	dual, err := db.CreateTableTx(tx, "dual", s)
	if err == nil {
		err = dual.InsertTx(tx, []engine.Value{engine.IntValue(1)})
	}
	if err = tx.Close(err); errors.Is(err, engine.ErrTableExists) {
		return nil
	}
	return err
}

// Query parses and executes a SELECT statement, materializing the full
// result. It is a thin wrapper over the streaming pipeline; use
// QueryRows to consume rows incrementally.
func (d *Database) Query(sql string) (*Result, error) {
	return sqlmini.Run(d.DB, sql)
}

// QueryRows parses and executes a SELECT statement, returning a
// streaming cursor over the operator pipeline. Rows are produced on
// demand: a TOP n query stops scanning after n rows, and a key-range
// query reads only the pages its range spans. The caller must Close the
// cursor (it releases the scan's pinned pages).
func (d *Database) QueryRows(sql string) (*Rows, error) {
	return sqlmini.Query(d.DB, sql)
}

// QueryWith runs a materializing query with explicit execution options
// (e.g. forcing or disabling parallel aggregate scans).
func (d *Database) QueryWith(sql string, opts ExecOptions) (*Result, error) {
	return sqlmini.RunWith(d.DB, sql, opts)
}

// ExecResult is the outcome of Exec: a result set for SELECT, a
// rows-affected count for DML.
type ExecResult = sqlmini.ExecResult

// Exec parses and runs any supported statement — SELECT, INSERT,
// UPDATE (including in-place subarray assignment) or DELETE. DML runs
// as one write session: with a WAL attached, the statement's page
// after-images and catalog delta are logged and synced before Exec
// returns.
func (d *Database) Exec(sql string) (*ExecResult, error) {
	return sqlmini.Execute(d.DB, sql)
}

// ExecArray is Exec with the §8 subscript sugar translated first:
// `UPDATE t SET arr[2:5] = ... WHERE id = 7` lowers to an in-place
// subarray update that rewrites only the chunk pages the slice touches.
func (d *Database) ExecArray(sql string, cols ArrayColumns) (*ExecResult, error) {
	translated, err := arraysugar.Translate(sql, cols)
	if err != nil {
		return nil, err
	}
	return sqlmini.Execute(d.DB, translated)
}

// ArrayColumns maps column names to their array schemas for the
// subscript pre-parser (§8 of the paper).
type ArrayColumns = arraysugar.Columns

// TranslateArraySyntax rewrites subscript sugar (v[3], m[1,0], a[1:4])
// into standard function calls — the §8 pre-parser.
func TranslateArraySyntax(query string, cols ArrayColumns) (string, error) {
	return arraysugar.Translate(query, cols)
}

// QueryArray runs a query written in the subscripted array dialect,
// translating it first. cols maps array-valued columns to their
// schemas, standing in for catalog metadata.
func (d *Database) QueryArray(sql string, cols ArrayColumns) (*Result, error) {
	translated, err := arraysugar.Translate(sql, cols)
	if err != nil {
		return nil, err
	}
	return d.Query(translated)
}

// QueryArrayRows is the streaming form of QueryArray: the subscript
// sugar is translated, then the query runs through the operator
// pipeline. The caller must Close the cursor.
func (d *Database) QueryArrayRows(sql string, cols ArrayColumns) (*Rows, error) {
	translated, err := arraysugar.Translate(sql, cols)
	if err != nil {
		return nil, err
	}
	return d.QueryRows(translated)
}

// QueryScalarFloat runs a query expected to return a single numeric
// value.
func (d *Database) QueryScalarFloat(sql string) (float64, error) {
	res, err := d.Query(sql)
	if err != nil {
		return 0, err
	}
	v, err := res.Scalar()
	if err != nil {
		return 0, err
	}
	return v.AsFloat()
}

// BulkSource yields rows for Copy; see engine.BulkSource.
type BulkSource = engine.BulkSource

// BulkOptions tunes a bulk load.
type BulkOptions = engine.BulkOptions

// BulkStats reports what a completed bulk load wrote.
type BulkStats = engine.BulkStats

// NewValuesSource adapts an in-memory row slice to BulkSource.
var NewValuesSource = engine.NewValuesSource

// Copy bulk-loads rows into a table — the COPY path. Rows are staged,
// sorted by clustered key, packed into full fresh leaves and blob
// pages, and committed as one write session with a single WAL sync; a
// crash mid-load recovers to all of the load or none of it. The table
// must be empty or every new key must exceed its current maximum.
func (d *Database) Copy(table string, src BulkSource, opts BulkOptions) (BulkStats, error) {
	t, err := d.DB.Table(table)
	if err != nil {
		return BulkStats{}, err
	}
	return t.BulkLoad(src, opts)
}

// CopyCSV bulk-loads headerless CSV text into a table: one record per
// row, fields in column order (numbers as text, binary as hex, an empty
// field is NULL), read and parsed one record at a time and loaded as
// Copy loads. A parse error names its line and leaves the table as it
// was.
func (d *Database) CopyCSV(table string, r io.Reader, opts BulkOptions) (BulkStats, error) {
	t, err := d.DB.Table(table)
	if err != nil {
		return BulkStats{}, err
	}
	return t.BulkLoad(engine.NewCSVSource(r, t.Schema()), opts)
}

// IOModel re-exports the disk model used to reconstruct the paper's
// I/O columns.
type IOModel = pages.IOModel

// DefaultIOModel matches the paper's testbed (~1150 MB/s scans).
var DefaultIOModel = pages.DefaultIOModel
