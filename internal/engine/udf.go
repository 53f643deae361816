package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the engine's user-defined-function boundary. The
// paper's central measurement (§6-7) is the cost of calling a hosted-CLR
// scalar function once per scanned row: arguments are serialized into the
// hosted runtime, the call is dispatched dynamically, and the result is
// deserialized back. Our boundary reproduces that structure faithfully:
//
//  1. every argument is serialized into a per-call byte buffer (the
//     SQLCLR parameter marshaling),
//  2. the function is resolved and dispatched through an indirect call,
//  3. inside the "hosted" side the arguments are deserialized into
//     Values again before the native Go implementation runs,
//  4. the result is serialized and deserialized symmetric to (1).
//
// The absolute per-call cost is smaller than the paper's ~2 µs (a 2008
// CLR transition), but it is real, measured work with the same scaling
// behaviour: proportional to argument bytes, independent of the work the
// function performs.

// ScalarFunc is the native implementation hosted behind the boundary.
type ScalarFunc func(args []Value) (Value, error)

// FuncDef describes a registered scalar UDF. Name is lower-case,
// schema-qualified ("floatarray.item_1"); Arity < 0 means variadic.
type FuncDef struct {
	Name  string
	Arity int
	Fn    ScalarFunc
}

// BoundaryStats counts traffic across the UDF boundary.
type BoundaryStats struct {
	Calls          uint64
	BytesMarshaled uint64
}

// FuncRegistry resolves and invokes UDFs. Call may be invoked from
// multiple goroutines concurrently (the parallel aggregate scan does);
// the boundary counters are atomics for that reason.
type FuncRegistry struct {
	mu             sync.RWMutex
	funcs          map[string]*FuncDef
	calls          atomic.Uint64
	bytesMarshaled atomic.Uint64
}

// boundaryPool recycles argument-marshaling buffers (a leaky free list:
// nested calls — constructors inside other calls, FromQuery running a
// whole query inside a UDF — each draw their own buffer).
var boundaryPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// NewFuncRegistry returns an empty registry.
func NewFuncRegistry() *FuncRegistry {
	return &FuncRegistry{funcs: make(map[string]*FuncDef)}
}

// Register adds a function; names are case-insensitive, T-SQL style.
func (r *FuncRegistry) Register(name string, arity int, fn ScalarFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(name)
	r.funcs[key] = &FuncDef{Name: key, Arity: arity, Fn: fn}
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

// Stats returns a snapshot of the boundary counters. The two counters
// are loaded independently, so a snapshot taken while calls are in
// flight may be torn by one call; quiesced reads are exact.
func (r *FuncRegistry) Stats() BoundaryStats {
	return BoundaryStats{
		Calls:          r.calls.Load(),
		BytesMarshaled: r.bytesMarshaled.Load(),
	}
}

// Call invokes a resolved UDF across the boundary. This is the per-row
// hot path of Table 1's queries 4 and 5.
func (r *FuncRegistry) Call(def *FuncDef, args []Value) (Value, error) {
	if def.Arity >= 0 && len(args) != def.Arity {
		return Null, fmt.Errorf("engine: %s expects %d args, got %d", def.Name, def.Arity, len(args))
	}
	// (1) serialize arguments into a boundary buffer
	bufp := boundaryPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	for _, a := range args {
		buf = marshalValue(buf, a)
	}
	r.calls.Add(1)
	r.bytesMarshaled.Add(uint64(len(buf)))
	// (3) deserialize on the hosted side (values alias buf, which stays
	// alive until the call returns)
	hosted := make([]Value, 0, len(args))
	rest := buf
	for len(rest) > 0 {
		var v Value
		var err error
		v, rest, err = unmarshalValue(rest)
		if err != nil {
			*bufp = buf
			boundaryPool.Put(bufp)
			return Null, fmt.Errorf("engine: boundary corrupt: %w", err)
		}
		hosted = append(hosted, v)
	}
	// (2) indirect dispatch into the native implementation
	out, err := def.Fn(hosted)
	if err != nil {
		*bufp = buf
		boundaryPool.Put(bufp)
		return Null, err
	}
	// (4) the result crosses back through a fresh buffer the caller
	// owns — never the pooled one, since out may alias hosted args.
	rbuf := marshalValue(make([]byte, 0, 16+len(out.B)), out)
	r.bytesMarshaled.Add(uint64(len(rbuf)))
	res, _, err := unmarshalValue(rbuf)
	*bufp = buf
	boundaryPool.Put(bufp)
	if err != nil {
		return Null, fmt.Errorf("engine: boundary corrupt on return: %w", err)
	}
	return res, nil
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
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case 0:
		return dst
	case ColInt64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v.I))
		return append(dst, b[:]...)
	case ColFloat64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
		return append(dst, b[:]...)
	case ColVarBinary, ColVarBinaryMax:
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(len(v.B)))
		dst = append(dst, b[:]...)
		return append(dst, v.B...) // the copy the CLR boundary charges
	}
	return dst
}

// unmarshalValue decodes one value, returning the remaining buffer.
// Binary payloads alias the boundary buffer (hosted code treating them
// as read-only, as SqlBytes buffers are).
func unmarshalValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Null, nil, fmt.Errorf("empty buffer")
	}
	kind := ColType(b[0])
	b = b[1:]
	switch kind {
	case 0:
		return Null, b, nil
	case ColInt64:
		if len(b) < 8 {
			return Null, nil, fmt.Errorf("truncated int64")
		}
		return IntValue(int64(binary.LittleEndian.Uint64(b))), b[8:], nil
	case ColFloat64:
		if len(b) < 8 {
			return Null, nil, fmt.Errorf("truncated float64")
		}
		return FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(b))), b[8:], nil
	case ColVarBinary, ColVarBinaryMax:
		if len(b) < 4 {
			return Null, nil, fmt.Errorf("truncated binary length")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < n {
			return Null, nil, fmt.Errorf("truncated binary payload")
		}
		return Value{Kind: kind, B: b[:n]}, b[n:], nil
	}
	return Null, nil, fmt.Errorf("unknown kind %d", kind)
}
