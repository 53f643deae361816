// Package tsql binds the array library to the SQL surface exactly as the
// paper organizes it (§5.1): "functions under separate schemas by
// underlying data-type and storage class ... Functions acting on short
// (on-page) arrays of type INT are under the schema IntArray, the ones
// acting on max arrays (out-of-page) are under IntArrayMax etc.", with
// numbered variants standing in for variadic parameters ("denoted with
// an underscore and a number").
//
// RegisterAll installs, for every element type and both storage classes:
//
//	Vector_1..Vector_16      constructors
//	Matrix_2..Matrix_4       square-matrix constructors (N² arguments)
//	Item_1..Item_6           element access by index
//	UpdateItem_1..UpdateItem_6 value-semantics element update
//	Subarray                 contiguous subsetting with collapse flag
//	Reshape_1..Reshape_6     dimension recast (size preserved)
//	Cast_1..Cast_6 / Raw     header prefix / strip
//	Length / Rank / Dim      shape inspection
//	ToString / FromString    text conversion
//	Sum / Avg / Min / Max / Std / Norm  whole-array aggregates
//	SumDim / AvgDim / MinDim / MaxDim   per-axis reductions
//	Add / Sub / Mul / Div / Scale / Dot / Abs  elementwise math
//	Convert                  conversion from any array type/class
//
// plus the math-library entry points of §5.3 (FFTForward, FFTInverse,
// SVDValues, Solve, NNLS, MatMul under FloatArrayMax) and the
// query-driven Concat replacement of §4.2 (FromQuery).
package tsql

import (
	"fmt"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// schemaInfo describes one T-SQL schema (element type + storage class).
type schemaInfo struct {
	name  string
	elem  core.ElemType
	class core.StorageClass
}

// allSchemas lists every T-SQL schema in registration order.
func allSchemas() []schemaInfo {
	base := []struct {
		name string
		elem core.ElemType
	}{
		{"TinyIntArray", core.Int8},
		{"SmallIntArray", core.Int16},
		{"IntArray", core.Int32},
		{"BigIntArray", core.Int64},
		{"RealArray", core.Float32},
		{"FloatArray", core.Float64},
		{"ComplexArray", core.Complex64},
		{"DoubleComplexArray", core.Complex128},
	}
	out := make([]schemaInfo, 0, 2*len(base))
	for _, b := range base {
		out = append(out, schemaInfo{b.name, b.elem, core.Short})
		out = append(out, schemaInfo{b.name + "Max", b.elem, core.Max})
	}
	return out
}

// maxVectorArgs bounds the numbered Vector_N constructors.
const maxVectorArgs = 16

// maxIndexArgs bounds Item_N / UpdateItem_N / Reshape_N / Cast_N.
const maxIndexArgs = 6

// RegisterAll installs the complete function surface into db's registry.
func RegisterAll(db *engine.DB) {
	reg := db.Funcs()
	for _, s := range allSchemas() {
		registerSchema(reg, s)
	}
	registerMath(reg)
	registerQueryFuncs(db)
}

// arrayResult wraps an array back into a SQL value of the array's class.
func arrayResult(a *core.Array) engine.Value {
	if a.Class() == core.Max {
		return engine.BinaryMaxValue(a.Bytes())
	}
	return engine.BinaryValue(a.Bytes())
}

// result wraps an array a function under schema s returns, in s's
// storage class: the paper's max-schema functions return varbinary(max)
// whatever the result's size, so what one schema's function returns
// always passes the same schema's §3.5 check. (core picks the class of
// a computed array by its size.)
func (s schemaInfo) result(a *core.Array) (engine.Value, error) {
	if a.Class() != s.class {
		out, err := a.ConvertClass(s.class)
		if err != nil {
			return engine.Null, err
		}
		a = out
	}
	return arrayResult(a), nil
}

// registerReader installs an array function that reads its first
// argument through an ArrayReader. Under a max schema it is an engine
// array function: a MAX column argument crosses the boundary as its blob
// ref, and fn reads only the header and the runs it needs, as of the
// statement's snapshot (§3.3's SqlBytes parameter). A short schema's
// arrays are on the row, so its functions take the bytes as any other
// function does and fn reads them in place — one implementation for
// both classes.
func (s schemaInfo) registerReader(reg *engine.FuncRegistry, name string, arity int, fn engine.ArrayFunc) {
	if s.class == core.Max {
		reg.RegisterArray(name, arity, fn)
		return
	}
	reg.Register(name, arity, func(args []engine.Value) (engine.Value, error) {
		return fn(engine.NewArrayReader(args[0]), args)
	})
}

// readerHeader reads an array argument's header through r and runs the
// §3.5 check against the schema, as arrayArg does for a decoded array.
func (s schemaInfo) readerHeader(r *engine.ArrayReader) (core.Header, error) {
	h, err := r.Header()
	if err != nil {
		return core.Header{}, err
	}
	return h, s.checkHeader(h)
}

// checkHeader is check over a header: the §3.5 check a read through an
// ArrayReader runs inside its plan, before it reads any payload.
func (s schemaInfo) checkHeader(h core.Header) error { return s.check(h.Elem, h.Class) }

// newArray allocates an array of the schema's class.
func (s schemaInfo) newArray(elem core.ElemType, dims ...int) (*core.Array, error) {
	return core.New(s.class, elem, dims...)
}

// arrayArg decodes and type-checks an array argument against the schema,
// implementing the paper's runtime type-flag check ("we can detect type
// mismatches at runtime when the blobs are passed to the wrong
// functions", §3.5).
func arrayArg(s schemaInfo, v engine.Value) (*core.Array, error) {
	b, err := v.AsBinary()
	if err != nil {
		return nil, err
	}
	a, err := core.Wrap(b)
	if err != nil {
		return nil, err
	}
	return a, s.check(a.ElemType(), a.Class())
}

// check is the §3.5 flag check of a blob's element type and storage
// class against the schema a function was called under.
func (s schemaInfo) check(elem core.ElemType, class core.StorageClass) error {
	return core.CheckFlags(s.name, s.elem, s.class, elem, class)
}

// value is an element of the schema's type as a SQL value: BIGINT under
// the integer schemas, FLOAT under the others.
func (s schemaInfo) value(p []byte) engine.Value {
	if s.elem.IsInteger() {
		return engine.IntValue(s.elem.Int(p))
	}
	return engine.FloatValue(s.elem.Float(p))
}

// anyArrayArg decodes an array argument without schema checks (used by
// Convert and index-vector parameters).
func anyArrayArg(v engine.Value) (*core.Array, error) {
	b, err := v.AsBinary()
	if err != nil {
		return nil, err
	}
	return core.Wrap(b)
}

// intVectorArg decodes an index-vector parameter (any integer array).
func intVectorArg(v engine.Value) ([]int, error) {
	a, err := anyArrayArg(v)
	if err != nil {
		return nil, err
	}
	if !a.ElemType().IsInteger() || a.Rank() != 1 {
		h := a.Header()
		return nil, fmt.Errorf("%w: index parameter must be an integer vector, got %s",
			core.ErrTypeMismatch, h.String())
	}
	return a.Ints(), nil
}

// intArgs converts integer arguments, appending to buf[:0] (nil
// allocates; a caller on a hot path passes a stack buffer).
func intArgs(args []engine.Value, buf []int) ([]int, error) {
	out := buf[:0]
	for i, a := range args {
		n, err := a.AsInt()
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i+1, err)
		}
		out = append(out, int(n))
	}
	return out, nil
}

// itemArgs is a short schema's Item_N over arguments that need
// converting. A bad array or a §3.5 mismatch is reported before a bad
// index argument, so an index that does not convert is reported only
// once arrayArg has passed the array.
func (s schemaInfo) itemArgs(args []engine.Value) (engine.Value, error) {
	b, err := args[0].AsBinary()
	if err != nil {
		return engine.Null, err
	}
	var buf [maxIndexArgs]int
	idx, err := intArgs(args[1:], buf[:])
	if err != nil {
		if _, aerr := arrayArg(s, args[0]); aerr != nil {
			return engine.Null, aerr
		}
		return engine.Null, err
	}
	p, err := core.Item(b, idx, s.elem, s.class, s.name)
	if err != nil {
		return engine.Null, err
	}
	return s.value(p), nil
}

// readItem is a max schema's Item_N: the header, then the one element,
// read through r in one Read — when r reads a MAX column, the chunk
// holding the header, and the chunk holding the element if it lies past
// the first block. The element's one run is planned from the decoded
// header (ArrayReader.Elem), so the read allocates nothing.
func (s schemaInfo) readItem(r *engine.ArrayReader, args []engine.Value) (engine.Value, error) {
	p, err := r.Elem(func(h core.Header) (int, error) {
		if err := s.checkHeader(h); err != nil {
			return 0, err
		}
		var buf [maxIndexArgs]int
		idx, err := intArgs(args[1:], buf[:])
		if err != nil {
			return 0, err
		}
		return h.LinearIndex(idx)
	})
	if err != nil {
		return engine.Null, err
	}
	return s.value(p), nil
}

// registerItems installs Item_1..Item_6 and UpdateItem_1..UpdateItem_6.
// (In a function of its own: a closure is compiled as part of the
// function it is written in, and registerSchema is too large for the
// compiler to inline the small calls of a closure in it, which the short
// Item_N's per-row body needs.)
func (s schemaInfo) registerItems(reg *engine.FuncRegistry) {
	for n := 1; n <= maxIndexArgs; n++ {
		n := n
		if item := fmt.Sprintf("%s.Item_%d", s.name, n); s.class == core.Max {
			reg.RegisterArray(item, n+1, s.readItem)
		} else {
			// A short schema's Item_N (Table 1's query 4 runs it once per
			// row): core.Item validates the array, runs the §3.5 check and
			// reads the element in one pass over the header, in place,
			// allocating nothing. Arguments of other kinds than a
			// VARBINARY and BIGINT indices take itemArgs, which converts
			// them as every function does.
			reg.Register(item, n+1, func(args []engine.Value) (engine.Value, error) {
				var buf [maxIndexArgs]int
				idx := buf[:len(args)-1]
				for k := range idx {
					if args[k+1].Kind != engine.ColInt64 {
						return s.itemArgs(args)
					}
					idx[k] = int(args[k+1].I)
				}
				if args[0].Kind != engine.ColVarBinary {
					return s.itemArgs(args)
				}
				p, err := core.Item(args[0].B, idx, s.elem, s.class, s.name)
				if err != nil {
					return engine.Null, err
				}
				if s.elem.IsInteger() {
					return engine.IntValue(s.elem.Int(p)), nil
				}
				return engine.FloatValue(s.elem.Float(p)), nil
			})
		}
		reg.Register(fmt.Sprintf("%s.UpdateItem_%d", s.name, n), n+2,
			func(args []engine.Value) (engine.Value, error) {
				a, err := arrayArg(s, args[0])
				if err != nil {
					return engine.Null, err
				}
				idx, err := intArgs(args[1:len(args)-1], nil)
				if err != nil {
					return engine.Null, err
				}
				v, err := args[len(args)-1].AsFloat()
				if err != nil {
					return engine.Null, err
				}
				// T-SQL value semantics: SET @a = UpdateItem_1(@a, 3, 4.5)
				out := a.Clone()
				if err := out.UpdateItem(v, idx...); err != nil {
					return engine.Null, err
				}
				return arrayResult(out), nil
			})
	}
}

func registerSchema(reg *engine.FuncRegistry, s schemaInfo) {
	name := func(fn string) string { return s.name + "." + fn }

	// Vector_N constructors.
	for n := 1; n <= maxVectorArgs; n++ {
		n := n
		reg.Register(fmt.Sprintf("%s.Vector_%d", s.name, n), n,
			func(args []engine.Value) (engine.Value, error) {
				a, err := core.New(s.class, s.elem, n)
				if err != nil {
					return engine.Null, err
				}
				for i, v := range args {
					if s.elem.IsInteger() {
						x, err := v.AsInt()
						if err != nil {
							return engine.Null, err
						}
						a.SetIntAt(i, x)
					} else {
						x, err := v.AsFloat()
						if err != nil {
							return engine.Null, err
						}
						a.SetFloatAt(i, x)
					}
				}
				return arrayResult(a), nil
			})
	}

	// Matrix_N constructors: side N, N² column-major arguments.
	for n := 2; n <= 4; n++ {
		n := n
		reg.Register(fmt.Sprintf("%s.Matrix_%d", s.name, n), n*n,
			func(args []engine.Value) (engine.Value, error) {
				a, err := core.New(s.class, s.elem, n, n)
				if err != nil {
					return engine.Null, err
				}
				for i, v := range args {
					x, err := v.AsFloat()
					if err != nil {
						return engine.Null, err
					}
					a.SetFloatAt(i, x)
				}
				return arrayResult(a), nil
			})
	}

	s.registerItems(reg)

	// Subarray(a, offsetVec, sizeVec, collapse): reads only the runs the
	// subarray covers.
	s.registerReader(reg, name("Subarray"), 4, func(r *engine.ArrayReader, args []engine.Value) (engine.Value, error) {
		offset, err := intVectorArg(args[1])
		if err != nil {
			return engine.Null, err
		}
		size, err := intVectorArg(args[2])
		if err != nil {
			return engine.Null, err
		}
		collapse, err := args[3].AsInt()
		if err != nil {
			return engine.Null, err
		}
		sub, err := r.Subarray(offset, size, collapse != 0, s.checkHeader, s.newArray)
		if err != nil {
			return engine.Null, err
		}
		return arrayResult(sub), nil
	})

	// Reshape_N(a, d1..dN) and Cast_N(raw, d1..dN).
	for n := 1; n <= maxIndexArgs; n++ {
		n := n
		reg.Register(fmt.Sprintf("%s.Reshape_%d", s.name, n), n+1,
			func(args []engine.Value) (engine.Value, error) {
				a, err := arrayArg(s, args[0])
				if err != nil {
					return engine.Null, err
				}
				dims, err := intArgs(args[1:], nil)
				if err != nil {
					return engine.Null, err
				}
				out, err := a.Reshape(dims...)
				if err != nil {
					return engine.Null, err
				}
				return arrayResult(out), nil
			})
		reg.Register(fmt.Sprintf("%s.Cast_%d", s.name, n), n+1,
			func(args []engine.Value) (engine.Value, error) {
				raw, err := args[0].AsBinary()
				if err != nil {
					return engine.Null, err
				}
				dims, err := intArgs(args[1:], nil)
				if err != nil {
					return engine.Null, err
				}
				a, err := core.Cast(s.class, s.elem, raw, dims...)
				if err != nil {
					return engine.Null, err
				}
				return arrayResult(a), nil
			})
	}

	// Raw, shape inspection, string conversion.
	reg.Register(name("Raw"), 1, func(args []engine.Value) (engine.Value, error) {
		a, err := arrayArg(s, args[0])
		if err != nil {
			return engine.Null, err
		}
		return engine.BinaryMaxValue(a.Raw()), nil
	})
	s.registerReader(reg, name("Length"), 1, func(r *engine.ArrayReader, _ []engine.Value) (engine.Value, error) {
		h, err := s.readerHeader(r)
		if err != nil {
			return engine.Null, err
		}
		return engine.IntValue(int64(h.Count())), nil
	})
	s.registerReader(reg, name("Rank"), 1, func(r *engine.ArrayReader, _ []engine.Value) (engine.Value, error) {
		h, err := s.readerHeader(r)
		if err != nil {
			return engine.Null, err
		}
		return engine.IntValue(int64(h.Rank())), nil
	})
	s.registerReader(reg, name("Dim"), 2, func(r *engine.ArrayReader, args []engine.Value) (engine.Value, error) {
		h, err := s.readerHeader(r)
		if err != nil {
			return engine.Null, err
		}
		k, err := args[1].AsInt()
		if err != nil {
			return engine.Null, err
		}
		if k < 0 || int(k) >= h.Rank() {
			return engine.Null, fmt.Errorf("%w: dim %d of rank-%d array", core.ErrRank, k, h.Rank())
		}
		return engine.IntValue(int64(h.Dims[k])), nil
	})
	reg.Register(name("ToString"), 1, func(args []engine.Value) (engine.Value, error) {
		a, err := arrayArg(s, args[0])
		if err != nil {
			return engine.Null, err
		}
		return engine.BinaryValue([]byte(core.Format(a))), nil
	})
	reg.Register(name("FromString"), 1, func(args []engine.Value) (engine.Value, error) {
		b, err := args[0].AsBinary()
		if err != nil {
			return engine.Null, err
		}
		a, err := core.Parse(s.elem, string(b))
		if err != nil {
			return engine.Null, err
		}
		out, err := a.ConvertClass(s.class)
		if err != nil {
			return engine.Null, err
		}
		return arrayResult(out), nil
	})

	// Whole-array aggregates.
	aggs := map[string]func(a *core.Array) float64{
		"Sum":  (*core.Array).Sum,
		"Avg":  (*core.Array).Mean,
		"Min":  func(a *core.Array) float64 { lo, _ := a.MinMax(); return lo },
		"Max":  func(a *core.Array) float64 { _, hi := a.MinMax(); return hi },
		"Std":  (*core.Array).Std,
		"Norm": (*core.Array).Norm2,
	}
	for fn, impl := range aggs {
		impl := impl
		reg.Register(name(fn), 1, func(args []engine.Value) (engine.Value, error) {
			a, err := arrayArg(s, args[0])
			if err != nil {
				return engine.Null, err
			}
			return engine.FloatValue(impl(a)), nil
		})
	}

	// Per-axis reductions.
	reductions := map[string]core.ReduceOp{
		"SumDim": core.ReduceSum, "AvgDim": core.ReduceMean,
		"MinDim": core.ReduceMin, "MaxDim": core.ReduceMax,
	}
	for fn, op := range reductions {
		op := op
		reg.Register(name(fn), 2, func(args []engine.Value) (engine.Value, error) {
			a, err := arrayArg(s, args[0])
			if err != nil {
				return engine.Null, err
			}
			axis, err := args[1].AsInt()
			if err != nil {
				return engine.Null, err
			}
			out, err := a.ReduceDim(int(axis), op)
			if err != nil {
				return engine.Null, err
			}
			return s.result(out)
		})
	}

	// Elementwise binary operations (operands must match this schema).
	binops := map[string]func(a, b *core.Array) (*core.Array, error){
		"Add": core.Add, "Sub": core.Sub, "Mul": core.Mul, "Div": core.Div,
	}
	for fn, impl := range binops {
		impl := impl
		reg.Register(name(fn), 2, func(args []engine.Value) (engine.Value, error) {
			a, err := arrayArg(s, args[0])
			if err != nil {
				return engine.Null, err
			}
			b, err := arrayArg(s, args[1])
			if err != nil {
				return engine.Null, err
			}
			out, err := impl(a, b)
			if err != nil {
				return engine.Null, err
			}
			return s.result(out)
		})
	}
	reg.Register(name("Scale"), 2, func(args []engine.Value) (engine.Value, error) {
		a, err := arrayArg(s, args[0])
		if err != nil {
			return engine.Null, err
		}
		f, err := args[1].AsFloat()
		if err != nil {
			return engine.Null, err
		}
		out, err := a.Scale(f)
		if err != nil {
			return engine.Null, err
		}
		return s.result(out)
	})
	reg.Register(name("Dot"), 2, func(args []engine.Value) (engine.Value, error) {
		a, err := arrayArg(s, args[0])
		if err != nil {
			return engine.Null, err
		}
		b, err := arrayArg(s, args[1])
		if err != nil {
			return engine.Null, err
		}
		d, err := core.Dot(a, b)
		if err != nil {
			return engine.Null, err
		}
		return engine.FloatValue(d), nil
	})
	reg.Register(name("Abs"), 1, func(args []engine.Value) (engine.Value, error) {
		a, err := arrayArg(s, args[0])
		if err != nil {
			return engine.Null, err
		}
		out, err := a.Abs()
		if err != nil {
			return engine.Null, err
		}
		return s.result(out)
	})

	// Convert: accept any array, convert to this schema's type and class.
	reg.Register(name("Convert"), 1, func(args []engine.Value) (engine.Value, error) {
		a, err := anyArrayArg(args[0])
		if err != nil {
			return engine.Null, err
		}
		t, err := a.ConvertElem(s.elem)
		if err != nil {
			return engine.Null, err
		}
		out, err := t.ConvertClass(s.class)
		if err != nil {
			return engine.Null, err
		}
		return arrayResult(out), nil
	})
}
