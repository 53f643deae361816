package sqlmini

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// This file is the executor's generated adversary: seeded random SELECTs
// run through the batch pipeline at several batch sizes and worker
// counts, each checked against referenceRun (row-at-a-time, each row
// read by key through GetAt, no pushdown, no batches). A failure prints the seed, the
// mode and the query, which is all it takes to replay it:
//
//	go test ./internal/sqlmini -run TestDifferentialSelect -diff.seed=<seed>

var diffSeed = flag.Int64("diff.seed", 0, "extra seed for TestDifferentialSelect (0 = fixed seed set only)")

// diffSeeds is the fixed seed set every run (CI's -race step included)
// covers.
var diffSeeds = []int64{1, 2, 3, 4, 5, 6}

const (
	diffRows         = 300
	diffQueries      = 120 // per seed, from genDiffQuery
	diffArrayQueries = 80  // per seed, from genArrayQuery
)

// diffDB builds the table the generated queries run over:
//
//	id  BIGINT          clustered key, dense 0..n-1
//	i   BIGINT          small ints, NULLs, a few values past 2^53
//	f   FLOAT           quarter steps, NULLs, NaN, ±Inf
//	g   FLOAT           quarter steps, never NULL/NaN/Inf (until DML assigns it)
//	tag VARBINARY       'a'..'d' or NULL
//	s   VARBINARY       short float array (3..6 elements) or NULL
//	m   VARBINARY(MAX)  NULL, a single-chunk array or a 3-chunk array
//	n   VARBINARY(MAX)  the array functions' column (diffArray)
//
// Every float is a multiple of 0.25 of small magnitude, so serial sums
// are exact; only division and parallel merges round.
//
// The returned pinWatch sees the frames pinned whenever t.Len runs over
// m, so each generated statement with a serial plan also checks the pin
// bound: one scan leaf at most.
func diffDB(t testing.TB, seed int64) (*engine.DB, *pinWatch) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := memDB(t)
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "i", Type: engine.ColInt64},
		engine.Column{Name: "f", Type: engine.ColFloat64},
		engine.Column{Name: "g", Type: engine.ColFloat64},
		engine.Column{Name: "tag", Type: engine.ColVarBinary},
		engine.Column{Name: "s", Type: engine.ColVarBinary},
		engine.Column{Name: "m", Type: engine.ColVarBinaryMax},
		engine.Column{Name: "n", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("R", s)
	if err != nil {
		t.Fatal(err)
	}
	quarter := func() float64 { return float64(rng.Intn(81)-40) / 4 }
	nrng := rand.New(rand.NewSource(seed + 1<<32)) // n's own stream: the other columns stay as they were
	for id := int64(0); id < diffRows; id++ {
		row := []engine.Value{engine.IntValue(id), engine.Null, engine.Null,
			engine.FloatValue(quarter()), engine.Null, engine.Null, engine.Null, diffArray(t, nrng, id)}
		switch r := rng.Intn(20); {
		case r == 0:
			// NULL
		case r == 1:
			row[1] = engine.IntValue(1<<53 + int64(rng.Intn(3)))
		default:
			row[1] = engine.IntValue(int64(rng.Intn(13) - 4))
		}
		switch r := rng.Intn(20); {
		case r == 0:
			// NULL
		case r == 1:
			row[2] = engine.FloatValue(math.NaN())
		case r == 2:
			row[2] = engine.FloatValue(math.Inf(1 - 2*rng.Intn(2)))
		default:
			row[2] = engine.FloatValue(quarter())
		}
		if rng.Intn(6) != 0 {
			row[4] = engine.BinaryValue([]byte{byte('a' + rng.Intn(4))})
		}
		if rng.Intn(6) != 0 {
			vals := make([]float64, 3+rng.Intn(4))
			for k := range vals {
				vals[k] = quarter()
			}
			row[5] = engine.BinaryValue(core.Vector(vals...).Bytes())
		}
		switch r := rng.Intn(12); {
		case r == 0:
			// NULL
		case r == 1:
			big := make([]float64, 2500) // 20 kB: three chunk pages
			for k := range big {
				big[k] = quarter()
			}
			a, err := core.FromFloat64s(core.Max, core.Float64, big, len(big))
			if err != nil {
				t.Fatal(err)
			}
			row[6] = engine.BinaryMaxValue(a.Bytes())
		default:
			a, err := core.FromFloat64s(core.Max, core.Float64, []float64{quarter(), quarter(), quarter()}, 3)
			if err != nil {
				t.Fatal(err)
			}
			row[6] = engine.BinaryMaxValue(a.Bytes())
		}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	w := &pinWatch{db: db}
	RegisterTSQL(db)
	reg := db.Funcs()
	// t.Inc keeps its argument's type: BIGINT in, BIGINT out.
	reg.Register("t.Inc", 1, func(args []engine.Value) (engine.Value, error) {
		switch v := args[0]; v.Kind {
		case engine.ColInt64:
			return engine.IntValue(v.I + 1), nil
		case engine.ColFloat64:
			return engine.FloatValue(v.F + 1), nil
		case 0:
			return engine.Null, nil
		}
		return engine.Null, fmt.Errorf("t.Inc: %w", engine.ErrTypeError)
	})
	// t.Mixed returns a different SQL type from row to row: NULL, BIGINT
	// or FLOAT by the argument's residue.
	reg.Register("t.Mixed", 1, func(args []engine.Value) (engine.Value, error) {
		n, err := args[0].AsInt()
		if err != nil {
			return engine.Null, nil
		}
		switch ((n % 5) + 5) % 5 {
		case 0:
			return engine.Null, nil
		case 1, 2:
			return engine.IntValue(n), nil
		}
		return engine.FloatValue(float64(n) / 2), nil
	})
	// t.Fail errors on a few argument values.
	reg.Register("t.Fail", 1, func(args []engine.Value) (engine.Value, error) {
		if n, err := args[0].AsInt(); err == nil && n == 7 {
			return engine.Null, fmt.Errorf("t.Fail: boom at %d", n)
		}
		return args[0], nil
	})
	// t.Len over a resolved MAX value also records the frames pinned
	// while it runs (pinWatch): the statement has just resolved m.
	reg.Register("t.Len", 1, func(args []engine.Value) (engine.Value, error) {
		if args[0].Kind == engine.ColVarBinaryMax {
			w.observe()
		}
		if args[0].IsNull() {
			return engine.IntValue(0), nil
		}
		b, err := args[0].AsBinary()
		if err != nil {
			return engine.Null, err
		}
		return engine.IntValue(int64(len(b))), nil
	})
	// t.Echo hands back its own argument bytes: the result aliases the
	// boundary's argument buffer on the hosted side.
	reg.Register("t.Echo", 1, func(args []engine.Value) (engine.Value, error) {
		return args[0], nil
	})
	// t.Item is FloatArray.Item_1 without the schema check (tsql cannot
	// be imported from here).
	reg.Register("t.Item", 2, func(args []engine.Value) (engine.Value, error) {
		if args[0].IsNull() {
			return engine.Null, nil
		}
		b, err := args[0].AsBinary()
		if err != nil {
			return engine.Null, err
		}
		a, err := core.Wrap(b)
		if err != nil {
			return engine.Null, err
		}
		k, err := args[1].AsInt()
		if err != nil {
			return engine.Null, err
		}
		x, err := a.Item(int(k))
		if err != nil {
			return engine.Null, err
		}
		return engine.FloatValue(x), nil
	})
	return db, w
}

// diffArray is row id's value of n, the column the T-SQL array
// functions run over. Its shape follows the id, so a generated query can
// pick the rows its index list fits:
//
//	id%16 == 15  NULL
//	id%16 == 14  a BIGINT array (FloatArrayMax rejects it)
//	id%16 == 13  a short-class FLOAT array (so does FloatArrayMax)
//	otherwise    a max-class FLOAT array of rank 1 + id%4
//
// Every dimension is at least 3. One array in four has about 2500
// elements (three chunk pages), drawn either from noise, which the
// writer stores as raw blocks, or as small steps, which it packs; the
// rest are a few dozen elements on one chunk.
func diffArray(t testing.TB, rng *rand.Rand, id int64) engine.Value {
	t.Helper()
	if id%16 == 15 {
		return engine.Null
	}
	rank := 1 + int(id%4)
	dims := make([]int, rank)
	for k := range dims {
		dims[k] = 3 + rng.Intn(3)
	}
	if rng.Intn(4) == 0 {
		// About 2500 elements: the last dimension takes up the rest.
		rest := 2500
		for _, d := range dims[:rank-1] {
			rest /= d
		}
		dims[rank-1] = rest + rng.Intn(3)
	}
	class, elem := core.Max, core.Float64
	switch id % 16 {
	case 14:
		elem = core.Int64
	case 13:
		class = core.Short
		dims[rank-1] = min(dims[rank-1], 5)
	}
	a, err := core.New(class, elem, dims...)
	if err != nil {
		t.Fatal(err)
	}
	noise := rng.Intn(2) == 0
	for i := 0; i < a.Len(); i++ {
		if noise {
			a.SetFloatAt(i, float64(rng.Intn(1<<20))/4)
		} else {
			a.SetFloatAt(i, float64(i)/4)
		}
	}
	return engine.BinaryMaxValue(a.Bytes())
}

// genArrayQuery builds one query over n through the T-SQL array
// functions: exactly one call that reads n through its blob ref (Item_N,
// Subarray with collapse 0 or 1, Length, Rank or Dim), possibly wrapped
// in a whole-array function or an aggregate, beside safe items. Being
// the statement's only expression that can fail, it fails on the same
// row, with the same error, in the reference and in every serial plan.
func genArrayQuery(rng *rand.Rand) diffQuery {
	g := &diffGen{rng: rng, safe: true}
	var q diffQuery
	q.aggregate = rng.Intn(3) == 0
	schema := "FloatArrayMax"
	if rng.Intn(8) == 0 {
		schema = "BigIntArrayMax"
	}
	rank := 1 + rng.Intn(4)
	idx := func() string {
		if rng.Intn(10) == 0 {
			return g.pick("3", "7", "2600", "(-1)") // out of range for some or all rows
		}
		return fmt.Sprint(rng.Intn(3))
	}
	list := func(f func() string) string {
		parts := make([]string, rank)
		for k := range parts {
			parts[k] = f()
		}
		return strings.Join(parts, ", ")
	}
	var call string
	numeric := true
	switch rng.Intn(6) {
	case 0, 1:
		call = fmt.Sprintf("%s.Item_%d(n, %s)", schema, rank, list(idx))
	case 2:
		call = fmt.Sprintf("%s.Subarray(n, IntArray.Vector_%d(%s), IntArray.Vector_%d(%s), %d)",
			schema, rank, list(idx), rank, list(func() string { return fmt.Sprint(1 + rng.Intn(2)) }), rng.Intn(2))
		switch rng.Intn(3) {
		case 0:
			numeric = false
		case 1:
			call = fmt.Sprintf("%s.Sum(%s)", schema, call)
		default:
			call = fmt.Sprintf("%s.Length(%s)", schema, call)
		}
	case 3:
		call = schema + ".Length(n)"
	case 4:
		call = schema + ".Rank(n)"
	default:
		call = fmt.Sprintf("%s.Dim(n, %d)", schema, rng.Intn(rank+1))
	}
	var where []string
	switch rng.Intn(8) {
	case 0, 1, 2: // the rows whose rank the index list fits
		where = append(where, fmt.Sprintf("(id %% 4) = %d", rank-1))
		if schema == "FloatArrayMax" {
			where = append(where, "(id % 16) < 13")
		} else {
			where = append(where, "(id % 16) = 14")
		}
	case 3, 4:
		lo := rng.Intn(diffRows)
		where = append(where, fmt.Sprintf("id >= %d", lo), fmt.Sprintf("id < %d", lo+1+rng.Intn(12)))
	case 5:
		where = append(where, fmt.Sprintf("id = %d", rng.Intn(diffRows)))
	}
	if rng.Intn(4) == 0 {
		where = append(where, g.pred(1))
	}
	var items []string
	switch {
	case q.aggregate && numeric:
		items = append(items, g.pick("SUM", "MIN", "MAX", "COUNT")+"("+call+")", "COUNT(*)")
	case q.aggregate:
		// An aggregate's argument must be numeric, or every row fails
		// the aggregate itself.
		items = append(items, "COUNT("+schema+".Length("+call+"))")
	default:
		items = append(items, "id", call)
		if rng.Intn(2) == 0 {
			items = append(items, g.num(1))
		}
	}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if !q.aggregate && rng.Intn(4) == 0 {
		q.top = true
		fmt.Fprintf(&sb, "TOP %d ", 1+rng.Intn(9))
	}
	sb.WriteString(strings.Join(items, ", ") + " FROM R")
	if len(where) > 0 {
		sb.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	q.sql, q.array = sb.String(), true
	return q
}

// errKind is the sentinel an error wraps — what the array functions'
// ref and bytes forms must agree on — or the error's text when it wraps
// none of them.
func errKind(err error) string {
	for _, k := range []error{
		core.ErrBounds, core.ErrRank, core.ErrTypeMismatch, core.ErrClassMismatch,
		core.ErrTruncated, core.ErrBadHeader, engine.ErrNullValue, engine.ErrTypeError,
	} {
		if errors.Is(err, k) {
			return k.Error()
		}
	}
	return err.Error()
}

// diffGen builds random expressions as SQL text. safe restricts it to
// expressions that cannot fail at run time (TOP queries need that: the
// reference stops scanning at the n-th match, the executor filters
// whole batches, so an error past that row would be seen by one side
// only).
type diffGen struct {
	rng  *rand.Rand
	safe bool
	udfs int // UDF calls emitted so far
}

func (g *diffGen) pick(opts ...string) string { return opts[g.rng.Intn(len(opts))] }

func (g *diffGen) lit() string {
	switch g.rng.Intn(4) {
	case 0:
		return g.pick("0.5", "2.25", "0.0", "3.0")
	case 1:
		return "(-" + g.pick("1", "3", "0.25") + ")"
	}
	return fmt.Sprint(g.rng.Intn(11))
}

// num is a numeric-typed expression. The key column only ever appears
// inside arithmetic here, so no generated conjunct is sargable except
// the key range the statement builder puts in front.
func (g *diffGen) num(depth int) string {
	if depth <= 0 {
		switch g.rng.Intn(8) {
		case 0:
			return "NULL"
		case 1, 2:
			return g.lit()
		case 3:
			return "(id + 0)"
		}
		return g.pick("i", "f", "g", "i", "f")
	}
	switch g.rng.Intn(12) {
	case 0, 1, 2, 3:
		return "(" + g.num(depth-1) + " " + g.pick("+", "-", "*", "/") + " " + g.num(depth-1) + ")"
	case 4:
		if g.safe {
			return "(" + g.num(depth-1) + " % " + g.pick("3", "2.5", "7") + ")"
		}
		return "(" + g.num(depth-1) + " % " + g.num(depth-1) + ")"
	case 5:
		return "(-" + g.num(depth-1) + ")"
	case 6:
		g.udfs++
		return "t.Inc(" + g.num(depth-1) + ")"
	case 7:
		g.udfs++
		return "t.Mixed(" + g.pick("id", "i", "(id + i)") + ")"
	case 8:
		g.udfs++
		return "t.Len(" + g.bin() + ")"
	case 9:
		g.udfs++
		k := g.pick("0", "1", "2")
		if !g.safe && g.rng.Intn(8) == 0 {
			k = "9" // out of bounds for every array
		}
		return "t.Item(" + g.pick("s", "m", "t.Echo(s)") + ", " + k + ")"
	case 10:
		if !g.safe {
			g.udfs++
			return "t.Fail(" + g.pick("i", "(id % 50)") + ")"
		}
	}
	return "(" + g.pred(depth-1) + ")"
}

func (g *diffGen) bin() string {
	switch g.rng.Intn(6) {
	case 0:
		return "'" + g.pick("a", "b", "c", "") + "'"
	case 1:
		g.udfs++
		return "t.Echo(tag)"
	case 2:
		return g.pick("s", "m")
	}
	return "tag"
}

func (g *diffGen) pred(depth int) string {
	cmp := g.pick("=", "<>", "<", "<=", ">", ">=")
	if depth <= 0 {
		if g.rng.Intn(3) == 0 {
			return g.bin() + " " + cmp + " " + g.bin()
		}
		return g.num(0) + " " + cmp + " " + g.num(0)
	}
	switch g.rng.Intn(10) {
	case 0, 1:
		return "(" + g.pred(depth-1) + " AND " + g.pred(depth-1) + ")"
	case 2, 3:
		return "(" + g.pred(depth-1) + " OR " + g.pred(depth-1) + ")"
	case 4:
		return "(NOT " + g.pred(depth-1) + ")"
	case 5:
		return g.bin() + " " + cmp + " " + g.bin()
	case 6:
		if !g.safe && g.rng.Intn(4) == 0 {
			return g.bin() + " " + cmp + " " + g.num(0) // type error
		}
	}
	return g.num(depth-1) + " " + cmp + " " + g.num(depth-1)
}

// diffQuery is one generated statement and what the checker needs to
// know about it.
type diffQuery struct {
	sql       string
	aggregate bool
	top       bool
	whereUDF  bool
	array     bool // genArrayQuery's: the error kind must match too
}

func genDiffQuery(rng *rand.Rand) diffQuery {
	var q diffQuery
	g := &diffGen{rng: rng}
	q.aggregate = rng.Intn(2) == 0
	q.top = !q.aggregate && rng.Intn(3) == 0
	g.safe = q.top

	var where []string
	switch rng.Intn(6) {
	case 0:
		lo := rng.Intn(diffRows)
		where = append(where, fmt.Sprintf("id >= %d", lo), fmt.Sprintf("id < %d", lo+rng.Intn(120)))
	case 1:
		where = append(where, fmt.Sprintf("id = %d", rng.Intn(diffRows+10)))
	case 2:
		where = append(where, fmt.Sprintf("%d <= id", rng.Intn(diffRows)))
	}
	if rng.Intn(3) != 0 {
		before := g.udfs
		where = append(where, g.pred(1+rng.Intn(2)))
		q.whereUDF = g.udfs > before
	}

	var items []string
	if q.aggregate {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			var it string
			switch rng.Intn(7) {
			case 0:
				it = "COUNT(*)"
			case 1:
				it = "COUNT(" + g.pick(g.num(1), g.bin()) + ")"
			case 2:
				it = g.pick("MIN", "MAX") + "(" + g.num(1+rng.Intn(2)) + ")"
			case 3:
				it = "AVG(" + g.num(1+rng.Intn(2)) + ")"
			case 4:
				it = "SUM(" + g.num(1) + ") / COUNT(*)"
			default:
				it = "SUM(" + g.num(1+rng.Intn(2)) + ")"
			}
			items = append(items, it)
		}
	} else {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			switch rng.Intn(5) {
			case 0:
				items = append(items, g.bin())
			case 1:
				items = append(items, g.pick("id", "i", "f", "tag"))
			default:
				items = append(items, g.num(1+rng.Intn(2)))
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.top {
		fmt.Fprintf(&sb, "TOP %d ", 1+rng.Intn(9))
	}
	sb.WriteString(strings.Join(items, ", "))
	sb.WriteString(" FROM R")
	if len(where) > 0 {
		sb.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	q.sql = sb.String()
	return q
}

// approxResultEq is resultEq with floats compared to a relative 1e-9:
// a parallel aggregate merges per-worker partial sums, which rounds
// differently from one serial pass.
func approxResultEq(a, b *Result) string {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			x, y := a.Rows[i][j], b.Rows[i][j]
			if x.Kind == engine.ColFloat64 && y.Kind == engine.ColFloat64 &&
				math.Abs(x.F-y.F) <= 1e-9*math.Max(1, math.Max(math.Abs(x.F), math.Abs(y.F))) {
				continue
			}
			if !valueEq(x, y) {
				return fmt.Sprintf("row %d col %d: %v vs %v", i, j, x, y)
			}
		}
	}
	return ""
}

// TestDifferentialSelect runs the generated queries of every seed
// through batchSize {1, 3, 1024} × Parallelism {1, 2} and requires the
// reference's rows (or an error on both sides), the reference's UDF call
// count, no pin left behind, and — on a serial plan — no more than the
// scan's leaf pinned while t.Len runs over m. The array queries run the
// max schemas' functions over n, reading it through its blob ref, while
// the reference materializes n and calls them row by row
// (FuncRegistry.Call, the bytes form); they must also fail with the same
// error kind, except under a parallel aggregate, whose workers stop at
// whichever failing row comes first.
func TestDifferentialSelect(t *testing.T) {
	seeds := diffSeeds
	if *diffSeed != 0 {
		seeds = append(append([]int64(nil), seeds...), *diffSeed)
	}
	type mode struct {
		name string
		opts ExecOptions
	}
	var modes []mode
	for _, bs := range []int{1, 3, 1024} {
		for _, par := range []int{1, 2} {
			modes = append(modes, mode{
				fmt.Sprintf("batch%d/par%d", bs, par),
				ExecOptions{batchSize: bs, Parallelism: par, parallelThreshold: 1},
			})
		}
	}
	for _, seed := range seeds {
		db, w := diffDB(t, seed)
		rng := rand.New(rand.NewSource(seed))
		arng := rand.New(rand.NewSource(seed + 1<<32))
		calls := func() uint64 { return metric(t, db.Metrics(), "udf.calls") }
		var errored, rows, arrayErrored, arrayRows int
		var udfCalls uint64
		kinds := map[string]bool{}
		for n := 0; n < diffQueries+diffArrayQueries; n++ {
			var q diffQuery
			if n < diffQueries {
				q = genDiffQuery(rng)
			} else {
				q = genArrayQuery(arng)
			}
			c0 := calls()
			want, wantErr := referenceRun(db, q.sql)
			wantCalls := calls() - c0
			if wantErr != nil {
				errored++
			} else {
				rows += len(want.Rows)
				udfCalls += wantCalls
			}
			if q.array && wantErr != nil {
				arrayErrored++
				kinds[errKind(wantErr)] = true
			} else if q.array {
				arrayRows += len(want.Rows)
			}
			for _, m := range modes {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Errorf("seed %d query %d mode %s: %s\n  %s", seed, n, m.name, fmt.Sprintf(format, args...), q.sql)
				}
				c0 := calls()
				w.take()
				got, err := RunWith(db, q.sql, m.opts)
				gotCalls := calls() - c0
				if pins := db.Pool().PinnedFrames(); pins != 0 {
					t.Fatalf("seed %d query %d mode %s: %d frames left pinned\n  %s", seed, n, m.name, pins, q.sql)
				}
				// A parallel aggregate's count is not exact (see pinWatch);
				// every other plan here is serial.
				if peak := w.take(); peak > 1 && !(q.aggregate && m.opts.Parallelism > 1) {
					t.Fatalf("seed %d query %d mode %s: %d frames pinned while a UDF ran, want <= 1\n  %s",
						seed, n, m.name, peak, q.sql)
				}
				if (err != nil) != (wantErr != nil) {
					fail("error %v, reference error %v", err, wantErr)
					continue
				}
				if err != nil {
					if q.array && !(q.aggregate && m.opts.Parallelism > 1) && errKind(err) != errKind(wantErr) {
						fail("error %v, reference error %v", err, wantErr)
					}
					continue
				}
				diff := resultEq(want, got)
				if diff != "" && q.aggregate && m.opts.Parallelism > 1 {
					diff = approxResultEq(want, got)
				}
				if diff != "" {
					fail("%s", diff)
				}
				// Under TOP the reference stops evaluating WHERE at the
				// n-th match while the filter works through the batch it
				// was handed, so predicate UDF calls legitimately differ.
				if !(q.top && q.whereUDF) && gotCalls != wantCalls {
					fail("%d UDF calls, reference %d", gotCalls, wantCalls)
				}
			}
			if t.Failed() {
				return // one failing query is enough; its seed is in the message
			}
		}
		t.Logf("seed %d: %d queries (%d erroring on both sides), %d reference rows, %d reference UDF calls; "+
			"%d array queries: %d erroring (%d kinds), %d rows",
			seed, diffQueries+diffArrayQueries, errored, rows, udfCalls, diffArrayQueries, arrayErrored, len(kinds), arrayRows)
	}
}

// ---- DML ------------------------------------------------------------------

// diffDML is one generated DELETE or UPDATE and the SELECT that predicts
// it: the reference executor's rows for probe are the keys the statement
// must touch and, for an UPDATE, the values it must assign.
type diffDML struct {
	sql   string
	probe string
	del   bool
	item  int // element of s the UPDATE assigns, -1 for none
}

func genDiffDML(rng *rand.Rand) diffDML {
	g := &diffGen{rng: rng}
	st := diffDML{del: rng.Intn(3) == 0, item: -1}
	var where []string
	// A DELETE always carries a narrow key range, so the table outlives
	// the statement sequence.
	if r := rng.Intn(4); st.del || r == 0 {
		lo := rng.Intn(diffRows)
		where = append(where, fmt.Sprintf("id >= %d", lo), fmt.Sprintf("id < %d", lo+1+rng.Intn(25)))
	} else if r == 1 {
		where = append(where, fmt.Sprintf("id = %d", rng.Intn(diffRows+10)))
	}
	if !st.del && rng.Intn(2) == 0 {
		st.item = rng.Intn(3)
		if rng.Intn(8) == 0 {
			st.item = 5 // out of bounds for most arrays
		}
		if rng.Intn(4) != 0 {
			where = append(where, "t.Len(s) > 0") // else a NULL s fails the statement
		}
	}
	if rng.Intn(4) != 0 {
		where = append(where, g.pred(1+rng.Intn(2)))
	}
	tail := " FROM R"
	if len(where) > 0 {
		tail += " WHERE " + strings.Join(where, " AND ")
	}
	if st.del {
		st.sql, st.probe = "DELETE"+tail, "SELECT id"+tail
		return st
	}
	newG := g.num(1 + rng.Intn(2))
	st.sql, st.probe = "UPDATE R SET g = "+newG, "SELECT id, "+newG
	if st.item >= 0 {
		newItem := g.num(rng.Intn(2))
		st.sql += fmt.Sprintf(", FloatArray.Item_1(s, %d) = %s", st.item, newItem)
		st.probe += ", " + newItem
	}
	st.sql += strings.TrimPrefix(tail, " FROM R")
	st.probe += tail
	return st
}

// apply predicts the table (id, g, s rows in key order) after the
// statement from the table before it and the probe's rows, or reports
// that the statement must fail: a subscript assignment to a NULL array,
// past its end, or of a non-numeric value.
func (st diffDML) apply(before, probe *Result) ([][]engine.Value, error) {
	hit := make(map[int64][]engine.Value, len(probe.Rows))
	for _, r := range probe.Rows {
		hit[r[0].I] = r
	}
	var after [][]engine.Value
	for _, row := range before.Rows {
		r, ok := hit[row[0].I]
		switch {
		case !ok:
			after = append(after, row)
			continue
		case st.del:
			continue
		}
		next := []engine.Value{row[0], r[1], row[2]}
		if !next[1].IsNull() {
			f, err := next[1].AsFloat() // a FLOAT column stores BIGINTs widened
			if err != nil {
				return nil, err
			}
			next[1] = engine.FloatValue(f)
		}
		if st.item >= 0 {
			if row[2].IsNull() {
				return nil, fmt.Errorf("subscript assignment to NULL s")
			}
			a, err := core.Wrap(append([]byte(nil), row[2].B...))
			if err != nil {
				return nil, err
			}
			f, err := r[2].AsFloat()
			if err != nil {
				return nil, err
			}
			if st.item >= a.Len() {
				return nil, fmt.Errorf("s[%d] of a %d-element array", st.item, a.Len())
			}
			a.SetFloatAt(st.item, f)
			next[2] = engine.BinaryValue(a.Bytes())
		}
		after = append(after, next)
	}
	return after, nil
}

// TestDifferentialDML runs a generated sequence of DELETEs and UPDATEs
// per seed at batchSize {1, 3, 1024}. Each statement is predicted from
// the reference executor — its probe SELECT over the pre-statement table —
// and must affect exactly those rows, leave the table (keys, g, s) as
// predicted, make the probe's UDF calls, fail exactly when the prediction
// fails (leaving the table untouched), leave no pin behind, and hold no
// more than the scan's leaf pinned while t.Len runs over m.
func TestDifferentialDML(t *testing.T) {
	seeds := diffSeeds
	if *diffSeed != 0 {
		seeds = append(append([]int64(nil), seeds...), *diffSeed)
	}
	const statements = 60
	const table = "SELECT id, g, s FROM R"
	for _, seed := range seeds {
		for _, bs := range []int{1, 3, 1024} {
			db, w := diffDB(t, seed)
			rng := rand.New(rand.NewSource(seed))
			calls := func() uint64 { return metric(t, db.Metrics(), "udf.calls") }
			var errored, left int
			var touched int64
			for n := 0; n < statements; n++ {
				st := genDiffDML(rng)
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d statement %d batchSize %d: %s\n  %s", seed, n, bs, fmt.Sprintf(format, args...), st.sql)
				}
				before, err := referenceRun(db, table)
				if err != nil {
					fail("reading the table: %v", err)
				}
				c0 := calls()
				probe, wantErr := referenceRun(db, st.probe)
				wantCalls := calls() - c0
				want := before.Rows
				if wantErr == nil {
					want, wantErr = st.apply(before, probe)
				}
				if wantErr != nil {
					want = before.Rows
					errored++
				}
				c0 = calls()
				w.take()
				got, err := executeWith(db, st.sql, ExecOptions{batchSize: bs})
				gotCalls := calls() - c0
				if pins := db.Pool().PinnedFrames(); pins != 0 {
					fail("%d frames left pinned", pins)
				}
				if peak := w.take(); peak > 1 {
					fail("%d frames pinned while a UDF ran, want <= 1", peak)
				}
				if (err != nil) != (wantErr != nil) {
					fail("error %v, predicted error %v", err, wantErr)
				}
				after, rerr := referenceRun(db, table)
				if rerr != nil {
					fail("reading the table back: %v", rerr)
				}
				if diff := resultEq(&Result{Columns: before.Columns, Rows: want}, after); diff != "" {
					fail("table after the statement: %s", diff)
				}
				left = len(after.Rows)
				if err != nil {
					continue
				}
				if got.RowsAffected != int64(len(probe.Rows)) {
					fail("%d rows affected, reference matches %d", got.RowsAffected, len(probe.Rows))
				}
				if gotCalls != wantCalls {
					fail("%d UDF calls, reference %d", gotCalls, wantCalls)
				}
				touched += got.RowsAffected
			}
			t.Logf("seed %d batchSize %d: %d statements (%d failing on both sides), %d rows affected, %d rows left",
				seed, bs, statements, errored, touched, left)
		}
	}
}
