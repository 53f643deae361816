// Command sqlsh is an interactive shell for the sqlarray dialect: it
// opens a database with the full T-SQL array surface registered and a
// demo table, and executes one statement per line. Array-subscript
// sugar (§8) is enabled with the \col meta command.
//
//	go run ./cmd/sqlsh
//	sql> SELECT FloatArray.Sum(FloatArray.Vector_3(1,2,3)) FROM dual
//	sql> \col v FloatArray
//	sql> SELECT v[0], v[1:3] FROM demo WHERE id < 3
//
// By default the database lives in memory, logged to an in-memory WAL,
// and is gone when the shell exits. With -dir PATH the shell opens or
// creates a durable database in PATH: the data file PATH/data.db and
// the write-ahead log's segment files in PATH/wal. Every acknowledged
// statement survives a crash; the next start recovers it and keeps the
// demo table it already has. Only one process may open a directory at
// a time, and nothing checks this.
//
//	go run ./cmd/sqlsh -dir /var/lib/sqlarray
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sqlarray"
	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
	"sqlarray/internal/pages"
	"sqlarray/internal/partition"
	"sqlarray/internal/sqlmini"
	"sqlarray/internal/wal"
)

func main() {
	dir := flag.String("dir", "", "open or create a durable database in this directory (data.db and wal/); without it the database lives in memory")
	flag.Parse()
	db, closeDB, err := openDatabase(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlsh:", err)
		os.Exit(1)
	}
	defer func() {
		if err := closeDB(); err != nil {
			fmt.Fprintln(os.Stderr, "sqlsh:", err)
		}
	}()
	if err := createDemoTable(db); err != nil {
		fmt.Fprintln(os.Stderr, "sqlsh:", err)
		os.Exit(1)
	}
	// Every statement's I/O is measured as a registry snapshot delta.
	// Sharded tables open their member databases against this same
	// registry, so scatter queries report their full fan-out I/O here
	// instead of only the primary database's share.
	reg := db.Metrics()
	shards := map[string]*partition.Store{}
	cols := sqlarray.ArrayColumns{}
	fmt.Println(`sqlarray shell — one statement per line (SELECT, INSERT, UPDATE, DELETE,
EXPLAIN [ANALYZE] SELECT; UPDATE supports in-place subarray assignment:
SET v[1:3] = ...); \col <name> <schema> maps a column for subscript sugar;
.stats prints the last statement's buffer-pool, blob and WAL I/O;
.load <table> <file.csv> bulk-loads a headerless CSV file (fields in
column order, binary as hex, empty = NULL); .checkpoint flushes and bounds
recovery; .shard <table> <parts> [rows] creates a range-partitioned demo
table queried scatter-gather; .serve-metrics <addr> exposes /metrics
(Prometheus) and /debug/vars (JSON) over HTTP; \q quits.
A table "demo"(id BIGINT, v VARBINARY short float 5-vector) is preloaded
with 10 rows.`)
	if *dir == "" {
		fmt.Println("database: in memory, gone on exit (-dir PATH keeps it)")
	} else {
		fmt.Println("database: durable in", *dir)
	}
	sc := bufio.NewScanner(os.Stdin)
	var last obs.Snapshot
	for {
		fmt.Print("sql> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "exit" || line == "quit":
			return
		case line == ".stats" || line == `\stats`:
			if last == nil {
				fmt.Println("no query has run yet")
				continue
			}
			printStats(last)
			continue
		case line == ".checkpoint" || line == `\checkpoint`:
			if err := db.Checkpoint(); err != nil {
				fmt.Println("error:", err)
				continue
			}
			ws := db.WAL().Stats()
			fmt.Printf("checkpoint done: WAL at LSN %d, %d segment(s), %d checkpoint(s) total\n",
				db.WAL().DurableLSN(), db.WAL().Segments(), ws.Checkpoints)
			continue
		case strings.HasPrefix(line, ".serve-metrics"):
			parts := strings.Fields(line)
			if len(parts) != 2 {
				fmt.Println("usage: .serve-metrics <addr>   e.g. .serve-metrics localhost:9090")
				continue
			}
			addr := parts[1]
			go func() {
				if err := http.ListenAndServe(addr, obs.Handler(reg)); err != nil {
					fmt.Fprintln(os.Stderr, "serve-metrics:", err)
				}
			}()
			fmt.Printf("serving /metrics (Prometheus) and /debug/vars (JSON) on http://%s\n", addr)
			continue
		case strings.HasPrefix(line, ".shard "):
			parts := strings.Fields(line)
			if len(parts) < 3 || len(parts) > 4 {
				fmt.Println("usage: .shard <table> <parts> [rows]")
				continue
			}
			nParts, err := strconv.Atoi(parts[2])
			rows := int64(1000)
			if err == nil && len(parts) == 4 {
				rows, err = strconv.ParseInt(parts[3], 10, 64)
			}
			if err != nil || nParts < 1 || rows < 1 {
				fmt.Println("usage: .shard <table> <parts> [rows]")
				continue
			}
			store, err := createShardedTable(reg, parts[1], nParts, rows)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			shards[parts[1]] = store
			fmt.Printf("sharded table %q: %d rows over %d members (id BIGINT, x FLOAT), queried scatter-gather\n",
				parts[1], rows, nParts)
			continue
		case strings.HasPrefix(line, ".load ") || strings.HasPrefix(line, `\load `):
			parts := strings.Fields(line)
			if len(parts) != 3 {
				fmt.Println("usage: .load <table> <file.csv>")
				continue
			}
			before := reg.Snapshot()
			st, err := loadCSV(db, parts[1], parts[2])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("loaded %d rows: %s on-page, %s blob data, %d leaf + %d blob pages\n",
				st.Rows, fmtBytes(uint64(st.RowBytes)), fmtBytes(uint64(st.BlobBytes)),
				st.LeafPages, st.BlobPages)
			last = reg.Snapshot().Delta(before)
			continue
		case strings.HasPrefix(line, `\col `):
			parts := strings.Fields(line)
			if len(parts) != 3 {
				fmt.Println(`usage: \col <column> <schema>, e.g. \col v FloatArray`)
				continue
			}
			cols[parts[1]] = parts[2]
			fmt.Printf("mapped %s -> %s\n", parts[1], parts[2])
			continue
		}
		before := reg.Snapshot()
		runStatement(db, shards, cols, line)
		last = reg.Snapshot().Delta(before)
	}
}

// runStatement routes one SQL line: sharded tables go scatter-gather
// through their partition store, everything else runs on the primary
// database (streaming for SELECT, Exec for the rest).
func runStatement(db *sqlarray.Database, shards map[string]*partition.Store, cols sqlarray.ArrayColumns, line string) {
	if store := shardTarget(shards, line); store != nil {
		if strings.HasPrefix(strings.ToUpper(line), "EXPLAIN") {
			plan, stats, err := store.Explain(line, sqlmini.ExecOptions{})
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Println(plan)
			fmt.Printf("(%d of %d partition(s) scanned)\n", stats.Scanned, stats.Partitions)
			return
		}
		res, stats, err := store.Query(line, sqlmini.ExecOptions{})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printResult(res)
		fmt.Printf("(%d of %d partition(s) scanned)\n", stats.Scanned, stats.Partitions)
		return
	}
	if isSelect(line) {
		rows, err := db.QueryArrayRows(line, cols)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printRows(rows)
		return
	}
	res, err := db.ExecArray(line, cols)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res.Plan != "" {
		fmt.Println(res.Plan)
		return
	}
	fmt.Printf("(%d row(s) affected)\n", res.RowsAffected)
}

// shardTarget returns the partition store the statement targets, if its
// FROM table is sharded. Only plain SELECT / EXPLAIN parse here; array
// sugar never applies to shard tables (they are (id, x) only).
func shardTarget(shards map[string]*partition.Store, line string) *partition.Store {
	if len(shards) == 0 {
		return nil
	}
	stmt, err := sqlmini.ParseStatement(line)
	if err != nil {
		return nil
	}
	switch s := stmt.(type) {
	case *sqlmini.SelectStmt:
		return shards[s.Table]
	case *sqlmini.ExplainStmt:
		return shards[s.Stmt.Table]
	}
	return nil
}

// createShardedTable opens nParts member databases against the shared
// registry, splits [0, rows) evenly, and bulk-loads id, x = id/2.
func createShardedTable(reg *obs.Registry, name string, nParts int, rows int64) (*partition.Store, error) {
	splits := make([]int64, nParts-1)
	for i := 1; i < nParts; i++ {
		splits[i-1] = rows*int64(i)/int64(nParts) - 1
	}
	spec := partition.Spec{Mode: partition.RangeMode, Splits: splits}
	dbs := make([]*engine.DB, nParts)
	for i := range dbs {
		m, err := engine.Open(engine.Options{Metrics: reg})
		if err != nil {
			return nil, err
		}
		dbs[i] = m
	}
	store, err := partition.New(spec, dbs)
	if err != nil {
		return nil, err
	}
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
	)
	if err != nil {
		return nil, err
	}
	if err := store.CreateTable(name, s); err != nil {
		return nil, err
	}
	var vals [][]engine.Value
	for i := int64(0); i < rows; i++ {
		vals = append(vals, []engine.Value{engine.IntValue(i), engine.FloatValue(float64(i) / 2)})
	}
	if _, err := store.BulkLoad(name, engine.NewValuesSource(vals), engine.BulkOptions{}); err != nil {
		return nil, err
	}
	return store, nil
}

// isSelect routes a line to the streaming query path; everything else
// goes through Exec (which also handles SELECT, but materialized).
func isSelect(line string) bool {
	return len(line) >= 6 && strings.EqualFold(line[:6], "SELECT")
}

// printStats renders a registry snapshot delta in the shell's .stats
// format. The delta spans every database attached to the registry —
// the primary plus all shard members — which is what makes scatter
// queries report their full I/O.
func printStats(d obs.Snapshot) {
	logical, physical := d.Get("pages.logical_reads"), d.Get("pages.physical_reads")
	// A statement that read nothing has no meaningful hit ratio; the old
	// "100.0%" default was a lie (and 0/0 in disguise).
	hit := "n/a"
	if logical > 0 {
		hit = fmt.Sprintf("%.1f%%", 100*(1-float64(physical)/float64(logical)))
	}
	fmt.Printf("buffer pool: %d logical reads, %d physical (%s hit ratio), %s from disk\n",
		logical, physical, hit, fmtBytes(d.Get("pages.bytes_read")))
	fmt.Printf("eviction:    %d admissions, %d promotions to protected, %d scan evictions\n",
		d.Get("pages.admissions"), d.Get("pages.promotions"), d.Get("pages.scan_evictions"))
	fmt.Printf("versions:    %d copy-on-write page copies, %d snapshot version reads, %d versions retired\n",
		d.Get("pages.cow_copies"), d.Get("pages.snapshot_reads"), d.Get("pages.versions_retired"))
	fmt.Printf("blob store:  %d chunk reads, %d directory reads, %s of blob data, %d chunks written\n",
		d.Get("blob.chunk_reads"), d.Get("blob.directory_reads"),
		fmtBytes(d.Get("blob.bytes_read")), d.Get("blob.chunks_written"))
	if sw, lw := d.Get("blob.stored_bytes_written"), d.Get("blob.bytes_written"); sw > 0 && lw > 0 {
		fmt.Printf("compression: wrote %s stored for %s logical (%.2fx)\n",
			fmtBytes(sw), fmtBytes(lw), float64(lw)/float64(sw))
	}
	if sr, lr := d.Get("blob.stored_bytes_read"), d.Get("blob.bytes_read"); sr > 0 && lr > 0 {
		fmt.Printf("compression: read %s stored for %s logical (%.2fx)\n",
			fmtBytes(sr), fmtBytes(lr), float64(lr)/float64(sr))
	}
	fmt.Printf("WAL:         %d records, %s logged, %d syncs\n",
		d.Get("wal.records"), fmtBytes(d.Get("wal.bytes_logged")), d.Get("wal.syncs"))
	fmt.Printf("UDF:         %d calls across the boundary, %s marshaled\n",
		d.Get("udf.calls"), fmtBytes(d.Get("udf.bytes_marshaled")))
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f kB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// loadCSV bulk-loads a headerless CSV file through CopyCSV: one record
// per row, parsed in order, then the COPY path.
func loadCSV(db *sqlarray.Database, table, path string) (sqlarray.BulkStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return sqlarray.BulkStats{}, err
	}
	defer f.Close()
	return db.CopyCSV(table, bufio.NewReader(f), sqlarray.BulkOptions{})
}

// openDatabase opens the shell's database. Without a directory it is an
// in-memory disk with an in-memory WAL, so DML is logged exactly as a
// durable database logs it and .stats/.checkpoint show the real
// durability traffic. With one, it is the file disk dir/data.db and a
// log of segment files in dir/wal, recovered on open. The returned
// function closes the log (syncing it) and the disk.
func openDatabase(dir string) (*sqlarray.Database, func() error, error) {
	var disk pages.DiskManager = pages.NewMemDisk()
	var st wal.Storage = wal.NewMemStorage()
	if dir != "" {
		ds, err := wal.NewDirStorage(filepath.Join(dir, "wal")) // creates dir too
		if err != nil {
			return nil, nil, err
		}
		fd, err := pages.OpenFileDisk(filepath.Join(dir, "data.db"))
		if err != nil {
			return nil, nil, err
		}
		disk, st = fd, ds
	}
	l, err := wal.Open(st, wal.Options{})
	if err != nil {
		_ = disk.Close() // the open error is the one to report
		return nil, nil, err
	}
	closeDB := func() error { return errors.Join(l.Close(), disk.Close()) }
	db, err := sqlarray.OpenDatabase(sqlarray.Options{Disk: disk, WAL: l})
	if err != nil {
		_ = closeDB()
		return nil, nil, err
	}
	return db, closeDB, nil
}

// createDemoTable creates and fills the demo table in one write
// session; a database reopened from a directory already has it.
func createDemoTable(db *sqlarray.Database) error {
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v", Type: engine.ColVarBinary},
	)
	if err != nil {
		return err
	}
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	tbl, err := db.CreateTableTx(tx, "demo", s)
	for i := 0; err == nil && i < 10; i++ {
		x := float64(i)
		a := sqlarray.Vector(x, 10*x, 100*x, x*x, 1)
		err = tbl.InsertTx(tx, []engine.Value{
			engine.IntValue(int64(i)), engine.BinaryValue(a.Bytes()),
		})
	}
	if err = tx.Close(err); errors.Is(err, engine.ErrTableExists) {
		return nil
	}
	return err
}

// printResult prints a materialized result (the scatter-gather path).
func printResult(res *sqlarray.Result) {
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = renderValue(v)
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("(%d row(s))\n", len(res.Rows))
}

// printRows streams the result: each row is printed as it comes off the
// operator pipeline, so a TOP n over a huge table prints immediately.
func printRows(rows *sqlarray.Rows) {
	defer func() {
		if err := rows.Close(); err != nil {
			fmt.Println("close error:", err)
		}
	}()
	fmt.Println(strings.Join(rows.Columns(), " | "))
	n := 0
	for rows.Next() {
		row := rows.Row()
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = renderValue(v)
		}
		fmt.Println(strings.Join(cells, " | "))
		n++
	}
	if err := rows.Err(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("(%d row(s))\n", n)
}

// renderValue pretty-prints binary cells that hold valid arrays.
func renderValue(v engine.Value) string {
	if v.Kind == engine.ColVarBinary || v.Kind == engine.ColVarBinaryMax {
		if a, err := core.Wrap(v.B); err == nil {
			return core.Format(a)
		}
	}
	return v.String()
}
