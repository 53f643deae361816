// Spectra example: the §2.2 pipeline — synthesize an archive of galaxy
// spectra, store them as array blobs, build redshift-binned composites,
// run PCA, expand a flagged spectrum with masked least squares (showing
// why plain dot products fail), and search for similar spectra through
// the kd-tree coefficient index.
//
//	go run ./examples/spectra
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"sqlarray/internal/engine"
	"sqlarray/internal/spectra"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	db, err := engine.Open(engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	store, err := spectra.CreateStore(db, "spectra")
	if err != nil {
		log.Fatal(err)
	}

	// An archive of 120 spectra: 4 object types x 3 redshift groups.
	fmt.Println("synthesizing and storing 120 spectra...")
	var all []*spectra.Spectrum
	for i := 0; i < 120; i++ {
		s, err := spectra.Synthesize(rng, spectra.SynthesisParams{
			Bins: 200, LoWave: 3800, HiWave: 7000,
			Z:        0.02 + 0.04*float64(i%3),
			SNR:      25,
			BadFrac:  0.01,
			LineSeed: int64(i % 4),
		})
		if err != nil {
			log.Fatal(err)
		}
		s.ID = int64(i)
		if err := store.Insert(s); err != nil {
			log.Fatal(err)
		}
		all = append(all, s)
	}
	stats, err := store.Table().Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("table: %d rows, %d leaf pages, %.1f kB out-of-page vectors\n",
		stats.Rows, stats.LeafPages, float64(stats.BlobBytes)/1024)

	// Composites per redshift bin.
	grid, err := spectra.LogGrid(4300, 6700, 150)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := spectra.CompositeByRedshift(all, grid, 0.04)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncomposites by redshift bin (dz = 0.04): %d groups\n", len(groups))
	for bin, c := range groups {
		fmt.Printf("  z ∈ [%.2f, %.2f): flux(5000Å)=%.3f\n",
			float64(bin)*0.04, float64(bin+1)*0.04, fluxAt(c, 5000*(1+float64(bin)*0.04)))
	}

	// PCA + masked expansion.
	basis, err := spectra.PCA(all, grid, 6, 4500, 6500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPCA: leading eigenvalues: ")
	for _, v := range basis.Values[:4] {
		fmt.Printf("%.2e ", v)
	}
	fmt.Println()

	clean := all[17]
	truth, err := basis.Expand(clean)
	if err != nil {
		log.Fatal(err)
	}
	dirty := clean.Clone()
	sign := 30.0
	for i := 0; i < len(dirty.Flux); i += 15 {
		dirty.Flux[i] += sign
		sign = -sign
		dirty.Flags[i] = 1
	}
	masked, err := basis.Expand(dirty)
	if err != nil {
		log.Fatal(err)
	}
	dotted, err := basis.ExpandDot(dirty)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expansion of a spectrum with 7%% corrupted+flagged pixels:\n")
	fmt.Printf("  masked LSQ error: %.4f   plain dot error: %.4f\n",
		coefErr(masked, truth), coefErr(dotted, truth))

	// Similar-spectrum search.
	ix, err := spectra.BuildSearchIndex(basis, all)
	if err != nil {
		log.Fatal(err)
	}
	query := all[42] // type 42%4 = 2
	ids, err := ix.Similar(query, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n6 nearest neighbours of spectrum %d (type %d): ", query.ID, query.ID%4)
	for _, id := range ids {
		fmt.Printf("%d(type %d) ", id, id%4)
	}
	fmt.Println()
}

func fluxAt(s *spectra.Spectrum, w float64) float64 {
	best, bd := 0, math.Inf(1)
	for i, x := range s.Wave {
		if d := math.Abs(x - w); d < bd {
			best, bd = i, d
		}
	}
	return s.Flux[best]
}

func coefErr(got, want []float64) float64 {
	s := 0.0
	for i := range want {
		d := got[i] - want[i]
		s += d * d
	}
	return math.Sqrt(s)
}
