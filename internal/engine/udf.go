package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"sqlarray/internal/blob"
	"sqlarray/internal/obs"
)

// This file implements the engine's user-defined-function boundary. The
// paper's central measurement (§6-7) is the cost of calling a hosted-CLR
// scalar function once per scanned row: arguments are serialized into the
// hosted runtime, the call is dispatched dynamically, and the result is
// deserialized back. Our boundary reproduces that structure faithfully:
//
//  1. every argument of every row is serialized into a boundary buffer
//     (the SQLCLR parameter marshaling),
//  2. the function is dispatched through an indirect call, once per row,
//  3. inside the "hosted" side the row's arguments are deserialized into
//     Values again before the native Go implementation runs,
//  4. the result is serialized and deserialized symmetric to (1).
//
// What a row pays is exactly that: its argument bytes copied in, one
// indirect call, its result frame carried back. What a row does not pay
// is the transition itself. CallBatch — the SQL executor's only entry,
// for every statement kind: SELECT, the read phase of UPDATE/DELETE,
// INSERT's constant folding (a one-row batch) — crosses once per batch:
// one pooled buffer holds the rows' argument frames (a bounded run of
// them at a time when the rows are large), the hosted side walks the
// frames with one reused argument slice, and the two boundary counters
// are added to once per batch. Call is the same crossing for a single
// row: the direct entry (CallByName, a caller invoking one function
// outside SQL — today the benchmarks and tests of the boundary itself)
// and what sqlmini's test oracle evaluates UDFs with. Both go through
// dispatch and the one marshalValue/unmarshalValue pair, so there is one
// wire format.
//
// The paper's max-schema functions take their array as SqlBytes, a
// stream over the stored value (§3.3), and so do the array functions
// here (RegisterArray: the max schemas' Item_N, Subarray, Length, Rank
// and Dim). When the executor passes a VARBINARY(MAX) column as an array
// function's first argument, the row's 12-byte blob ref crosses in
// place of the payload: a ColMaxRef frame, the kind tag plus the ref.
// The row is still marshaled and dispatched once and counted once in
// udf.calls; udf.bytes_marshaled counts the frames that crossed, so such
// a row is charged 13 bytes for that argument, not the array's size.
// Every other argument — a short VARBINARY, a MAX column passed anywhere
// else (materialized first), any computed value — crosses as its bytes,
// exactly as before. On the hosted side dispatch binds the boundary's
// ArrayReader to the argument — a ref as of the snapshot CallBatch was
// given, bytes in place — for that one call and releases it after:
// nothing the reader read, pinned or pointed at outlives the call, and a
// pooled boundary keeps no snapshot.
//
// The absolute per-call cost is smaller than the paper's ~2 µs (a 2008
// CLR transition), but it is real, measured work with the same scaling
// behaviour: proportional to argument bytes, independent of the work the
// function performs.

// ScalarFunc is the native implementation hosted behind the boundary.
type ScalarFunc func(args []Value) (Value, error)

// ArrayFunc is the native implementation of an array function: one that
// reads its first argument, an array, through r — the paper's SqlBytes
// parameter (§3.3) — instead of taking its bytes. args[0] is that
// argument as it crossed the boundary (a payload, or a MAX column's blob
// ref); the function reads it only through r, which is valid until the
// function returns.
type ArrayFunc func(r *ArrayReader, args []Value) (Value, error)

// FuncDef describes a registered scalar UDF. Name is lower-case,
// schema-qualified ("floatarray.item_1"); Arity < 0 means variadic.
// Exactly one of Fn and ArrayFn is set.
type FuncDef struct {
	Name    string
	Arity   int
	Fn      ScalarFunc
	ArrayFn ArrayFunc // an array function: see RegisterArray
}

// FuncRegistry resolves and invokes UDFs. Call and CallBatch may be
// invoked from multiple goroutines concurrently (the parallel aggregate
// scan does); the boundary counters are atomics for that reason, and
// the same handles the database's metrics registry serves as udf.calls
// and udf.bytes_marshaled.
type FuncRegistry struct {
	mu             sync.RWMutex
	funcs          map[string]*FuncDef
	calls          obs.Counter
	bytesMarshaled obs.Counter
}

// boundary is the memory one crossing works in: the argument frames of
// every row, the current row's result frame, and the argument slice the
// hosted side decodes each frame into.
type boundary struct {
	buf    []byte
	res    []byte
	hosted []Value
	blobs  *blob.Store // the store ref arguments read through (a snapshot's); set for one CallBatch
	rd     ArrayReader // an array function's reader, bound for one dispatch
}

// boundaryPool recycles boundaries (a leaky free list: nested calls —
// constructors inside other calls, FromQuery running a whole query
// inside a UDF — each draw their own).
var boundaryPool = sync.Pool{New: func() any { return new(boundary) }}

// newFuncRegistry returns an empty registry.
func newFuncRegistry() *FuncRegistry {
	return &FuncRegistry{funcs: make(map[string]*FuncDef)}
}

// Register adds a function; names are case-insensitive, T-SQL style.
func (r *FuncRegistry) Register(name string, arity int, fn ScalarFunc) {
	r.add(&FuncDef{Name: strings.ToLower(name), Arity: arity, Fn: fn})
}

// RegisterArray adds an array function of arity >= 1. Its first argument
// reaches fn as an ArrayReader: when the executor passes a MAX column
// there, only the column's 12-byte blob ref crosses the boundary, and fn
// reads the header and the byte runs it needs as of the statement's
// snapshot; any other argument is read in place.
func (r *FuncRegistry) RegisterArray(name string, arity int, fn ArrayFunc) {
	if arity < 1 {
		panic(fmt.Sprintf("engine: array function %s needs an array argument", name))
	}
	r.add(&FuncDef{Name: strings.ToLower(name), Arity: arity, ArrayFn: fn})
}

func (r *FuncRegistry) add(def *FuncDef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[def.Name] = def
}

// Lookup resolves a function by case-insensitive name.
func (r *FuncRegistry) Lookup(name string) (*FuncDef, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	def, ok := r.funcs[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFunc, name)
	}
	return def, nil
}

// Names returns the registered function names (for diagnostics).
func (r *FuncRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.funcs))
	for k := range r.funcs {
		out = append(out, k)
	}
	return out
}

func (r *FuncRegistry) registerMetrics(reg *obs.Registry) {
	reg.Attach("udf.calls", &r.calls)
	reg.Attach("udf.bytes_marshaled", &r.bytesMarshaled)
}

func checkArity(def *FuncDef, nargs int) error {
	if def.Arity >= 0 && nargs != def.Arity {
		return fmt.Errorf("engine: %s expects %d args, got %d", def.Name, def.Arity, nargs)
	}
	return nil
}

// dispatch is the hosted side of one call: (3) deserialize the nargs
// values of the argument frame at the front of frames, (2) dispatch into
// the native implementation, (4) carry the result back through b.res
// into *res. It returns the frames after this one, also when the native
// implementation fails. A binary result aliases b.res (never the
// argument frames, which the native result may alias) and is valid until
// the next dispatch on b.
func (b *boundary) dispatch(def *FuncDef, nargs int, frames []byte, res *Value) ([]byte, error) {
	if cap(b.hosted) < nargs {
		b.hosted = make([]Value, nargs)
	}
	b.hosted = b.hosted[:nargs]
	var err error
	for k := range b.hosted {
		if frames, err = unmarshalValue(frames, &b.hosted[k]); err != nil {
			return nil, fmt.Errorf("engine: boundary corrupt: %w", err)
		}
	}
	var out Value
	if def.ArrayFn != nil {
		b.rd.bind(b.blobs, b.hosted[0])
		out, err = def.ArrayFn(&b.rd, b.hosted)
		b.rd.release()
	} else {
		out, err = def.Fn(b.hosted)
	}
	if err != nil {
		return frames, err
	}
	b.res = marshalValue(b.res[:0], out)
	if _, err := unmarshalValue(b.res, res); err != nil {
		return nil, fmt.Errorf("engine: boundary corrupt on return: %w", err)
	}
	return frames, nil
}

// Call invokes a resolved UDF across the boundary for one row of
// arguments. A binary result is the caller's own copy.
func (r *FuncRegistry) Call(def *FuncDef, args []Value) (Value, error) {
	if err := checkArity(def, len(args)); err != nil {
		return Null, err
	}
	b := boundaryPool.Get().(*boundary)
	b.buf = b.buf[:0]
	for _, a := range args {
		b.buf = marshalValue(b.buf, a)
	}
	var res Value
	_, err := b.dispatch(def, len(args), b.buf, &res)
	total := len(b.buf)
	if err == nil {
		total += len(b.res)
		if res.B != nil {
			res.B = append([]byte(nil), res.B...) // b.res goes back to the pool
		}
	}
	r.calls.Add(1)
	r.bytesMarshaled.Add(uint64(total))
	boundaryPool.Put(b)
	return res, err
}

// maxRunBytes caps the argument frames a crossing holds at once. A batch
// of small rows (Table 1's 5-vectors: 80 KB for 1024 rows) is one run; a
// batch of large arrays is marshaled and dispatched a few rows at a
// time, so the boundary buffer stays near one row's size however many
// rows the batch has.
const maxRunBytes = 256 << 10

// CallBatch invokes a resolved UDF for rows [0, n) of the argument
// vectors in one crossing, reading ColMaxRef arguments as of s (nil when
// there are none), storing row i's result as row i of out (binary
// results are copied into out and stay valid until its next Reset). It
// is the per-row hot path of Table 1's queries 4 and 5: every row's
// argument frame is marshaled — the copy the paper charges stays, byte
// for byte — and every row is dispatched, but the buffer, the hosted
// argument slice and the counter updates are per batch. Rows are
// marshaled in runs of at most maxRunBytes (and at least one row), each
// run dispatched before the next is marshaled. On a UDF error the rows
// before it have been called, the rows after it have not, that row's
// error is returned, and the counters cover the rows called: what Call
// would have counted for them.
func (r *FuncRegistry) CallBatch(s *Snapshot, def *FuncDef, args []*Vector, n int, out *Vector) error {
	if err := checkArity(def, len(args)); err != nil {
		return err
	}
	b := boundaryPool.Get().(*boundary)
	if s != nil {
		b.blobs = s.blobs
	}
	out.Reset(0, n)
	var (
		called, total int
		res           Value
		err           error
	)
	for called < n && err == nil {
		b.buf = b.buf[:0]
		hi := called
		for ; hi < n && len(b.buf) < maxRunBytes; hi++ {
			for _, a := range args {
				b.buf = marshalValue(b.buf, a.Value(hi))
			}
		}
		frames := b.buf
		for called < hi && err == nil {
			if frames, err = b.dispatch(def, len(args), frames, &res); err == nil {
				total += len(b.res)
				if res.B != nil {
					res.B = out.hold(res.B)
				}
				out.Set(called, res)
			}
			called++
		}
		total += len(b.buf) - len(frames)
	}
	r.calls.Add(uint64(called))
	r.bytesMarshaled.Add(uint64(total))
	b.blobs = nil // a pooled boundary must not keep the database reachable
	boundaryPool.Put(b)
	return err
}

// CallByName resolves and invokes in one step (slow path).
func (r *FuncRegistry) CallByName(name string, args []Value) (Value, error) {
	def, err := r.Lookup(name)
	if err != nil {
		return Null, err
	}
	return r.Call(def, args)
}

// marshalValue appends the boundary wire form of v.
func marshalValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case ColInt64:
		return binary.LittleEndian.AppendUint64(append(dst, byte(v.Kind)), uint64(v.I))
	case ColFloat64:
		return binary.LittleEndian.AppendUint64(append(dst, byte(v.Kind)), math.Float64bits(v.F))
	case ColVarBinary, ColVarBinaryMax:
		dst = binary.LittleEndian.AppendUint32(append(dst, byte(v.Kind)), uint32(len(v.B)))
		return append(dst, v.B...) // the copy the CLR boundary charges
	case ColMaxRef:
		return append(append(dst, byte(v.Kind)), v.B[:blob.RefSize]...) // the SqlBytes handle, not the payload
	}
	return append(dst, byte(v.Kind))
}

// unmarshalValue decodes one value from the front of b into *v,
// returning the remaining buffer. Binary payloads alias the boundary
// buffer (hosted code treating them as read-only, as SqlBytes buffers
// are).
func unmarshalValue(b []byte, v *Value) ([]byte, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("empty buffer")
	}
	kind := ColType(b[0])
	b = b[1:]
	switch kind {
	case 0:
		*v = Null
		return b, nil
	case ColInt64:
		if len(b) < 8 {
			return nil, fmt.Errorf("truncated int64")
		}
		*v = IntValue(int64(binary.LittleEndian.Uint64(b)))
		return b[8:], nil
	case ColFloat64:
		if len(b) < 8 {
			return nil, fmt.Errorf("truncated float64")
		}
		*v = FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		return b[8:], nil
	case ColVarBinary, ColVarBinaryMax:
		if len(b) < 4 {
			return nil, fmt.Errorf("truncated binary length")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < n {
			return nil, fmt.Errorf("truncated binary payload")
		}
		*v = Value{Kind: kind, B: b[:n]}
		return b[n:], nil
	case ColMaxRef:
		if len(b) < blob.RefSize {
			return nil, fmt.Errorf("truncated blob ref")
		}
		*v = Value{Kind: kind, B: b[:blob.RefSize]}
		return b[blob.RefSize:], nil
	}
	return nil, fmt.Errorf("unknown kind %d", kind)
}
