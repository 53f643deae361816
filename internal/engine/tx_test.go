package engine

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sqlarray/internal/blob"
	"sqlarray/internal/core"
)

// TestUpdateTxAppliesColumnsInOrder: UpdateTx writes a row's new MAX
// payloads in the order its columns are listed, so the same UPDATE on
// fresh databases lays the blobs out the same way and hands back the
// same refs. A column listed twice is rejected and changes nothing.
func TestUpdateTxAppliesColumnsInOrder(t *testing.T) {
	schema, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "a", Type: ColVarBinaryMax},
		Column{Name: "b", Type: ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	a0, b0 := core.Vector(1, 2, 3).Bytes(), core.Vector(4, 5).Bytes()
	a1, b1 := core.Vector(6, 7, 8, 9).Bytes(), core.Vector(10).Bytes()
	var want []byte
	for run := 0; run < 20; run++ {
		db := memDB(t)
		tbl, err := db.CreateTable("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert([]Value{IntValue(1), BinaryMaxValue(a0), BinaryMaxValue(b0)}); err != nil {
			t.Fatal(err)
		}
		if err := inTx(db, func(tx *Tx) error {
			return tbl.UpdateTx(tx, 1, []int{2, 1}, []Value{BinaryMaxValue(b1), BinaryMaxValue(a1)})
		}); err != nil {
			t.Fatal(err)
		}
		row, err := tbl.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		refs := append(append([]byte(nil), row[1].B...), row[2].B...)
		if run == 0 {
			want = refs
		} else if !bytes.Equal(refs, want) {
			t.Fatalf("run %d: refs %x, run 0 wrote %x", run, refs, want)
		}
		if run > 0 {
			continue
		}
		for col, payload := range map[int][]byte{1: a1, 2: b1} {
			if got, err := resolveMax(tbl, row[col].B); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("column %d reads %x, %v; want %x", col, got, err, payload)
			}
		}
		err = inTx(db, func(tx *Tx) error {
			return tbl.UpdateTx(tx, 1, []int{1, 2, 1}, []Value{BinaryMaxValue(b0), BinaryMaxValue(a0), BinaryMaxValue(b0)})
		})
		if !errors.Is(err, ErrTypeError) {
			t.Fatalf("a column set twice: %v, want ErrTypeError", err)
		}
		again, err := tbl.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again[1].B, row[1].B) || !bytes.Equal(again[2].B, row[2].B) {
			t.Fatal("a rejected UPDATE changed the row")
		}
	}
}

// sessionModel is the in-memory model TestWriteSessionModel holds the
// engine to: every committed table's rows by key, with MAX columns as
// their payloads.
type sessionModel map[string]map[int64][]Value

// clone copies the model's maps; rows are never mutated in place.
func (m sessionModel) clone() sessionModel {
	c := make(sessionModel, len(m))
	for name, rows := range m {
		c[name] = maps.Clone(rows)
	}
	return c
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestWriteSessionModel runs seeded random write sessions over 3–5
// tables: inserts (enough to split roots), updates (some moving the
// key), deletes and CREATE TABLE, each session ending in a commit or an
// abort at random. After every session each table's Rows, Stats and
// full scan must equal the model, and a snapshot held across sessions
// must keep reading its own cut.
func TestWriteSessionModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runSessionModel(t, seed) })
	}
}

func runSessionModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	schema, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "x", Type: ColFloat64},
		Column{Name: "pad", Type: ColVarBinary},
		Column{Name: "m", Type: ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	randCol := func(c int) Value {
		switch {
		case c == 1:
			return FloatValue(rng.NormFloat64())
		case rng.Intn(4) == 0:
			return Null
		case c == 2:
			return BinaryValue(randBytes(rng.Intn(400)))
		default:
			return BinaryMaxValue(randBytes(1 + rng.Intn(3000)))
		}
	}

	db := memDB(t)
	model := sessionModel{}
	tables := map[string]*Table{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprint("t", i)
		tbl, err := db.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		tables[name], model[name] = tbl, map[int64][]Value{}
	}

	var (
		snap      *Snapshot
		snapModel sessionModel
		splits    int // aborted sessions over 2+ tables that had split a leaf
	)
	defer func() {
		if snap != nil {
			snap.Release()
		}
	}()
	for session := 0; session < 80; session++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		work := model.clone()
		created := map[string]*Table{}
		table := func() (string, *Table) {
			names := sortedKeys(work)
			name := names[rng.Intn(len(names))]
			if tbl := tables[name]; tbl != nil {
				return name, tbl
			}
			return name, created[name]
		}
		existing := func(rows map[int64][]Value) int64 {
			keys := sortedKeys(rows)
			return keys[rng.Intn(len(keys))]
		}
		freeKey := func(rows map[int64][]Value) int64 {
			for {
				if k := rng.Int63n(2000); rows[k] == nil {
					return k
				}
			}
		}
		for op, ops := 0, 1+rng.Intn(60); op < ops; op++ {
			name, tbl := table()
			rows := work[name]
			switch r := rng.Intn(20); {
			case r == 0 && len(work) < 5:
				name := fmt.Sprintf("s%d_%d", session, op)
				tbl, err := db.CreateTableTx(tx, name, schema)
				if err != nil {
					t.Fatal(err)
				}
				created[name], work[name] = tbl, map[int64][]Value{}
			case r < 4 && len(rows) > 0:
				k := existing(rows)
				if err := tbl.DeleteTx(tx, k); err != nil {
					t.Fatal(err)
				}
				delete(rows, k)
			case r < 8 && len(rows) > 0:
				k := existing(rows)
				next := slices.Clone(rows[k])
				cols := rng.Perm(len(schema.Columns))[:1+rng.Intn(len(schema.Columns))]
				vals := make([]Value, len(cols))
				for i, c := range cols {
					if c == schema.Key {
						vals[i] = IntValue(freeKey(rows))
					} else {
						vals[i] = randCol(c)
					}
					next[c] = vals[i]
				}
				if err := tbl.UpdateTx(tx, k, cols, vals); err != nil {
					t.Fatal(err)
				}
				delete(rows, k)
				rows[next[schema.Key].I] = next
			default:
				k := freeKey(rows)
				row := []Value{IntValue(k), randCol(1), randCol(2), randCol(3)}
				if err := tbl.InsertTx(tx, row); err != nil {
					t.Fatal(err)
				}
				rows[k] = row
			}
		}
		if rng.Intn(2) == 0 {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model = work
			for name, tbl := range created {
				tables[name] = tbl
			}
		} else {
			for _, tbl := range tx.wrote {
				if _, ok := db.cat.Load().state(tbl); !ok || len(tx.wrote) < 2 {
					continue
				}
				pub, err := tbl.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if live, err := tbl.tree.LeafPageCount(); err != nil {
					t.Fatal(err)
				} else if live > pub.LeafPages {
					splits++
					break
				}
			}
			tx.Abort()
			for name, tbl := range created {
				if got, err := db.Table(name); !errors.Is(err, ErrNoTable) {
					t.Fatalf("session %d: aborted CREATE of %q left %v, %v", session, name, got, err)
				}
				if n := tbl.Rows(); n != 0 {
					t.Fatalf("session %d: aborted table %q counts %d rows", session, name, n)
				}
				row := []Value{IntValue(0), FloatValue(0), Null, Null}
				if err := inTx(db, func(tx *Tx) error { return tbl.InsertTx(tx, row) }); !errors.Is(err, ErrNoTable) {
					t.Fatalf("session %d: insert into aborted table %q: %v, want ErrNoTable", session, name, err)
				}
			}
		}
		s := db.Snapshot()
		checkModel(t, s, tables, model)
		s.Release()
		if snap != nil {
			checkModel(t, snap, tables, snapModel)
		}
		if session%25 == 5 {
			if snap != nil {
				snap.Release()
			}
			snap, snapModel = db.Snapshot(), model.clone()
		}
	}
	if splits == 0 {
		t.Fatal("no aborted session over several tables had split a leaf: resize the sessions")
	}
	t.Logf("%d tables, %d aborted sessions over several tables after a leaf split", len(tables), splits)
}

// checkModel holds every table of model to what the snapshot s reads:
// row count, byte counters, and a full scan with MAX payloads resolved.
func checkModel(t *testing.T, s *Snapshot, tables map[string]*Table, model sessionModel) {
	t.Helper()
	for name, rows := range model {
		tbl := tables[name]
		var rowBytes, blobBytes int64
		for _, row := range rows {
			stored := slices.Clone(row)
			if !row[3].IsNull() {
				stored[3] = BinaryMaxValue(make([]byte, blob.RefSize))
				blobBytes += int64(len(row[3].B))
			}
			raw, err := encodeRow(&tbl.schema, stored)
			if err != nil {
				t.Fatal(err)
			}
			rowBytes += int64(len(raw))
		}
		st, err := tbl.StatsAt(s)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rows != int64(len(rows)) || st.RowBytes != rowBytes || st.BlobBytes != blobBytes || st.LeafPages < 1 {
			t.Fatalf("%s at tag %d: stats %+v, model has %d rows, %d row bytes, %d blob bytes",
				name, s.Tag(), st, len(rows), rowBytes, blobBytes)
		}
		if s.cat == s.db.cat.Load() {
			if n := tbl.Rows(); n != int64(len(rows)) {
				t.Fatalf("%s: Rows() = %d, model has %d", name, n, len(rows))
			}
			if pub, err := tbl.Stats(); err != nil || pub != st {
				t.Fatalf("%s: Stats() = %+v, %v; the snapshot reads %+v", name, pub, err, st)
			}
		}
		keys := sortedKeys(rows)
		n := 0
		err = scanRowsAt(tbl, s, func(key int64, row []Value) (bool, error) {
			if n >= len(keys) || key != keys[n] {
				t.Fatalf("%s at tag %d: scan position %d holds key %d", name, s.Tag(), n, key)
			}
			want := rows[key]
			for c, v := range row {
				w := want[c]
				if c == 3 && !v.IsNull() {
					payload, err := tbl.ResolveMaxAt(s, v.B)
					if err != nil {
						return false, err
					}
					v.B = payload
				}
				if v.IsNull() != w.IsNull() || v.I != w.I || math.Float64bits(v.F) != math.Float64bits(w.F) || !bytes.Equal(v.B, w.B) {
					t.Fatalf("%s at tag %d: key %d column %d = %v, model %v", name, s.Tag(), key, c, v, w)
				}
			}
			n++
			return true, nil
		})
		if err != nil || n != len(keys) {
			t.Fatalf("%s at tag %d: scanned %d rows of %d (%v)", name, s.Tag(), n, len(keys), err)
		}
	}
}
