package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sqlarray/internal/blob"
	"sqlarray/internal/core"
)

// frameVectors builds the argument vectors the frame tests walk, each of
// n rows: uniform columns of every kind with and without NULLs, mixed
// kinds, an all-NULL column, constants, and ColMaxRef columns.
func frameVectors(rng *rand.Rand, n int) map[string]*Vector {
	out := make(map[string]*Vector)
	fill := func(name string, vals []Value) {
		v := new(Vector)
		v.Reset(0, n)
		for i, x := range vals {
			v.Set(i, x)
		}
		out[name] = v
	}
	for _, kind := range []ColType{ColInt64, ColFloat64, ColVarBinary, ColVarBinaryMax, ColMaxRef} {
		for _, nulls := range []bool{false, true} {
			vals := make([]Value, n)
			for i := range vals {
				if nulls && rng.Intn(4) == 0 {
					continue
				}
				vals[i] = randomValue(rng, kind)
			}
			fill(fmt.Sprintf("%s nulls=%v", kind, nulls), vals)
		}
		c := new(Vector)
		c.SetConst(randomValue(rng, kind))
		out[fmt.Sprintf("const %s", kind)] = c
	}
	fill("mixed", randomValues(rng, n, false))
	fill("all NULL", make([]Value, n))
	c := new(Vector)
	c.SetConst(Null)
	out["const NULL"] = c
	// A typed vector whose rows are written straight into its slices, as
	// a scan fills one.
	ints := new(Vector)
	ints.Reset(ColInt64, n)
	for i := range ints.I {
		ints.I[i] = rng.Int63() - 1<<62
	}
	out["typed BIGINT"] = ints
	return out
}

// randomValue draws one non-NULL value of kind. A ColMaxRef row may be
// longer than a ref: only its first blob.RefSize bytes cross.
func randomValue(rng *rand.Rand, kind ColType) Value {
	switch kind {
	case ColInt64:
		return IntValue(rng.Int63() - 1<<62)
	case ColFloat64:
		return FloatValue(rng.NormFloat64())
	case ColMaxRef:
		b := make([]byte, blob.RefSize+rng.Intn(2)*3)
		rng.Read(b)
		return Value{Kind: kind, B: b}
	}
	b := make([]byte, rng.Intn(80))
	rng.Read(b)
	return Value{Kind: kind, B: b}
}

// TestArgumentFramesMatchMarshalValue: the typed frame writer appends,
// for every row of every kind of vector, exactly the bytes marshalValue
// appends for the row's Value — the one wire format.
func TestArgumentFramesMatchMarshalValue(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(200)
		for name, v := range frameVectors(rng, n) {
			prefix := []byte{0xEE, 0xEF}
			for i := 0; i < n; i++ {
				got := v.appendFrame(append([]byte(nil), prefix...), i)
				want := marshalValue(append([]byte(nil), prefix...), v.Value(i))
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d %s row %d: frame %x, marshalValue %x", round, name, i, got, want)
				}
			}
		}
	}
}

// TestResultFramesDecodeLikeUnmarshalSet: decoding result frames into a
// vector stores what unmarshalValue + hold + Set store — the same rows,
// kinds, NULLs and uniformity — for int, float, binary, NULL and mixed
// results, and a binary row does not alias the frame it came from.
func TestResultFramesDecodeLikeUnmarshalSet(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	kinds := []ColType{ColInt64, ColFloat64, ColVarBinary, ColVarBinaryMax}
	var got, want Vector
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(150)
		var results []Value
		switch round % 5 {
		case 0, 1, 2: // one kind, as a UDF with a fixed result type returns
			kind := kinds[rng.Intn(len(kinds))]
			results = make([]Value, n)
			for i := range results {
				if round%5 != 0 && rng.Intn(6) == 0 {
					continue
				}
				results[i] = randomValue(rng, kind)
			}
		case 3:
			results = randomValues(rng, n, false)
		case 4:
			results = make([]Value, n) // every row NULL
		}
		got.Reset(0, n)
		want.Reset(0, n)
		// Every row is stored in order, and then some non-NULL rows again
		// with values of any kind, as Set allows.
		writes := make([]int, n)
		for i := range writes {
			writes[i] = i
		}
		first := append([]Value(nil), results...)
		for k := 0; k < n/4; k++ {
			if i := rng.Intn(n); !results[i].IsNull() {
				writes = append(writes, i)
				results[i] = randomValue(rng, kinds[rng.Intn(len(kinds))])
			}
		}
		for j, i := range writes {
			val := results[i]
			if j < n {
				val = first[i]
			}
			frame := marshalValue(nil, val)
			if err := got.setFrame(i, frame); err != nil {
				t.Fatal(err)
			}
			var dec Value
			if _, err := unmarshalValue(frame, &dec); err != nil {
				t.Fatal(err)
			}
			if dec.B != nil {
				dec.B = want.hold(dec.B)
			}
			want.Set(i, dec)
			for k := range frame {
				frame[k] ^= 0xFF // the boundary reuses its result buffer
			}
		}
		if got.Kind != want.Kind || got.Uniform() != want.Uniform() {
			t.Fatalf("round %d: kind %v uniform %v, Set gives %v %v",
				round, got.Kind, got.Uniform(), want.Kind, want.Uniform())
		}
		for i, val := range results {
			if g, w := got.Value(i), want.Value(i); !sameValue(g, w) || !sameValue(g, val) || got.IsNull(i) != want.IsNull(i) {
				t.Fatalf("round %d row %d: decoded %v, unmarshal+Set %v, returned %v", round, i, g, w, val)
			}
		}
	}
	var v Vector
	v.Reset(0, 1)
	for _, frame := range [][]byte{nil, {byte(ColFloat64), 1, 2}, {99}} {
		if err := v.setFrame(0, frame); err == nil {
			t.Errorf("frame %x decoded without error", frame)
		}
	}
}

// q4Shape builds Table 1 query 4's arguments for n rows: a 64-byte short
// 5-vector per row (header and five FLOATs) and the constant index 0.
func q4Shape(tb testing.TB, n int) []*Vector {
	arr, err := core.FromFloat64s(core.Short, core.Float64, []float64{1, 2, 3, 4, 5}, 5)
	if err != nil {
		tb.Fatal(err)
	}
	var vecs, idx Vector
	vecs.Reset(ColVarBinary, n)
	for i := range vecs.B {
		vecs.B[i] = arr.Bytes()
	}
	if len(vecs.B[0]) != 64 {
		tb.Fatalf("array is %d bytes, want 64", len(vecs.B[0]))
	}
	idx.SetConst(IntValue(0))
	return []*Vector{&vecs, &idx}
}

// q4Registry registers Table 1's two UDFs in their engine-level form:
// item_1 reads one element of a short array in place, as the short
// schemas' Item_1 does, and empty returns 0 whatever it is given.
func q4Registry() *FuncRegistry {
	r := newFuncRegistry()
	r.Register("t.item_1", 2, func(args []Value) (Value, error) {
		idx := [1]int{int(args[1].I)}
		p, err := core.Item(args[0].B, idx[:], core.Float64, core.Short, "t")
		if err != nil {
			return Null, err
		}
		return FloatValue(core.Float64.Float(p)), nil
	})
	r.Register("t.empty", 2, func([]Value) (Value, error) { return FloatValue(0), nil })
	return r
}

// BenchmarkCallBatch is the boundary's per-row cost in Table 1's two UDF
// shapes, without the scan: query 4 (Item_1 over a 64-byte short array
// and a constant index) and query 5 (an empty function of the same
// arguments), in 1024-row batches.
func BenchmarkCallBatch(b *testing.B) {
	const n = 1024
	for _, q := range []struct{ name, fn string }{{"Q4", "t.item_1"}, {"Q5", "t.empty"}} {
		b.Run(q.name, func(b *testing.B) {
			r := q4Registry()
			def, _ := r.Lookup(q.fn)
			args := q4Shape(b, n)
			var out Vector
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.CallBatch(nil, def, args, n, &out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
