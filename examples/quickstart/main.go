// Quickstart: the array type and the T-SQL surface in five minutes.
// Mirrors the usage examples of §5.1/§5.3 of the paper.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sqlarray"
)

func main() {
	// --- arrays as values -------------------------------------------------
	// DECLARE @a VARBINARY(100) = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)
	a := sqlarray.Vector(1, 2, 3, 4, 5)
	fmt.Println("vector:", sqlarray.Format(a))

	// SELECT FloatArray.Item_1(@a, 3)
	v, err := a.Item(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("item 3 (zero indexed):", v)

	// DECLARE @m = FloatArray.Matrix_2(0.1, 0.2, 0.3, 0.4); Item_2(@m, 1, 0)
	m, err := sqlarray.Matrix(2, 2, 0.1, 0.2, 0.3, 0.4)
	if err != nil {
		log.Fatal(err)
	}
	v, _ = m.Item(1, 0)
	fmt.Println("matrix element (1,0):", v)

	// Subarray with the T-SQL calling convention: offset and size come
	// as integer index vectors; the last flag collapses unit dims.
	cube, err := sqlarray.New(sqlarray.Max, sqlarray.Float64, 10, 10, 10)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < cube.Len(); i++ {
		cube.SetFloatAt(i, float64(i))
	}
	sub, err := cube.SubarrayFrom(sqlarray.IntVector(1, 4, 6), sqlarray.IntVector(5, 5, 4), false)
	if err != nil {
		log.Fatal(err)
	}
	h := sub.Header()
	fmt.Println("subarray:", h.String(), "sum:", sub.Sum())

	// Reshape keeps the payload, changes the dims (§5.1: "original and
	// target sizes must not differ").
	r, err := a.Reshape(5, 1)
	if err != nil {
		log.Fatal(err)
	}
	rh := r.Header()
	fmt.Println("reshaped:", rh.String())

	// The blob is the storage format: Bytes() is exactly what a
	// VARBINARY column holds, Wrap() reads it back.
	blob := a.Bytes()
	back, err := sqlarray.Wrap(blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blob roundtrip: %d bytes, equal=%v\n", len(blob), a.Equal(back))

	// --- SQL on top ---------------------------------------------------------
	db, err := sqlarray.OpenDatabase(sqlarray.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sum, err := db.QueryScalarFloat(
		"SELECT FloatArray.Sum(FloatArray.Vector_4(1, 2, 3, 4)) FROM dual")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SQL array sum:", sum)

	// The math-library entry points of §5.3: FFT of an array, straight
	// from SQL. The DC bin of the spectrum is the sum of the inputs.
	res, err := db.Query(
		"SELECT DoubleComplexArrayMax.Item_1(FloatArrayMax.FFTForward(FloatArrayMax.Convert(FloatArray.Vector_8(1,2,3,4,5,6,7,8))), 0) FROM dual")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("FFT DC bin via SQL:", res.Rows[0][0])
}
