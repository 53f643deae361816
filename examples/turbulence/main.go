// Turbulence example: the §2.1 scenario end to end — generate a
// divergence-free velocity field, partition it into z-ordered ghosted
// cubes stored as array blobs, and serve batched particle interpolation
// queries, comparing whole-blob against partial-read I/O and different
// blob sizes (the trade-off the paper says they were "currently
// experimenting with").
//
//	go run ./examples/turbulence
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"sqlarray/internal/engine"
	"sqlarray/internal/interp"
	"sqlarray/internal/obs"
	"sqlarray/internal/sqlmini"
	"sqlarray/internal/turbulence"
)

func main() {
	const n = 32 // grid side (the production JHU box is 1024)
	fmt.Printf("generating %d^3 synthetic isotropic turbulence...\n", n)
	field, err := turbulence.GenerateField(n, 24, 2024)
	if err != nil {
		log.Fatal(err)
	}

	// 10,000 probe positions, like one public-service request.
	rng := rand.New(rand.NewSource(7))
	pts := make([][3]float64, 10_000)
	for i := range pts {
		pts[i] = [3]float64{rng.Float64() * n, rng.Float64() * n, rng.Float64() * n}
	}

	fmt.Printf("%-8s %-8s %-10s %-14s %-14s\n", "cube", "ghost", "blob kB", "mode", "bytes/point")
	for _, cube := range []int{8, 16, 32} {
		db, err := engine.Open(engine.Options{PoolPages: 16384})
		if err != nil {
			log.Fatal(err)
		}
		store, err := turbulence.CreateStore(db, "turb", field, cube, 4)
		if err != nil {
			log.Fatal(err)
		}
		for _, mode := range []turbulence.FetchMode{turbulence.WholeBlob, turbulence.PartialRead} {
			if err := store.DropCache(); err != nil {
				log.Fatal(err)
			}
			before := db.Metrics().Snapshot()
			if _, err := store.VelocityBatch(0, pts, interp.Lag8, mode); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8d %-8d %-10d %-14s %-14.0f\n",
				cube, store.Ghost(), store.BlockBytes()/1024, mode.String(),
				float64(db.Metrics().Snapshot().Delta(before).Get("pages.bytes_read"))/float64(len(pts)))
		}
	}

	// Interpolation scheme comparison at fixed storage.
	db, err := engine.Open(engine.Options{PoolPages: 16384})
	if err != nil {
		log.Fatal(err)
	}
	store, err := turbulence.CreateStore(db, "turb", field, 16, 4)
	if err != nil {
		log.Fatal(err)
	}
	// Slow-query log on the cube table: scanning every z-ordered blob
	// row trips a 50µs threshold and logs one JSON line with the
	// analyzed plan, pages read and blob chunk reads; the zkey point
	// lookup stays under it and logs nothing.
	fmt.Println("\nslow-query log (threshold 50µs; the blob scan trips it):")
	slowOpts := sqlmini.ExecOptions{SlowLog: obs.NewSlowLog(os.Stdout, 50*time.Microsecond)}
	for _, q := range []string{
		"SELECT zkey, blob FROM turb",
		"SELECT zkey FROM turb WHERE zkey = 0",
	} {
		if _, err := sqlmini.RunWith(db, q, slowOpts); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\nscheme accuracy vs the analytic field (first probe):")
	truth, err := store.Velocity(0, pts[0], interp.Lag8, turbulence.WholeBlob)
	if err != nil {
		log.Fatal(err)
	}
	for _, scheme := range []interp.Scheme{interp.Nearest, interp.Linear, interp.Lag4, interp.Lag6, interp.Lag8} {
		v, err := store.Velocity(0, pts[0], scheme, turbulence.WholeBlob)
		if err != nil {
			log.Fatal(err)
		}
		d := 0.0
		for k := 0; k < 3; k++ {
			d += (v[k] - truth[k]) * (v[k] - truth[k])
		}
		fmt.Printf("  %-8s u=(%+.4f, %+.4f, %+.4f)  |Δ vs lag8|=%.2e\n",
			scheme, v[0], v[1], v[2], d)
	}
}
