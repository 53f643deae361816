package spectra

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// versionedSpectrum builds version v of the test spectrum: Z carries v
// and every array is a function of v, so a reader can tell from Z which
// committed version it must be holding, in full. Even versions are
// constant (compress to a page or two), odd ones are noise (stored raw,
// several pages), so successive UPDATEs free and reuse different
// numbers of blob pages.
func versionedSpectrum(v, n int) *Spectrum {
	s := &Spectrum{ID: 1, Z: float64(v), Wave: make([]float64, n), Flux: make([]float64, n),
		Err: make([]float64, n), Flags: make([]int64, n)}
	rng := rand.New(rand.NewSource(int64(v)))
	for i := 0; i < n; i++ {
		s.Wave[i] = 3000 + float64(i)
		if v%2 == 0 {
			s.Flux[i], s.Err[i], s.Flags[i] = float64(v), float64(v)/2, int64(v%100)
		} else {
			s.Flux[i], s.Err[i], s.Flags[i] = rng.NormFloat64(), rng.Float64(), int64(rng.Intn(1<<15))
		}
	}
	return s
}

// sameSlice reports whether got equals want's samples [lo, hi).
func sameSlice(got, want *Spectrum, lo, hi int) error {
	if len(got.Wave) != hi-lo || len(got.Flux) != hi-lo || len(got.Err) != hi-lo || len(got.Flags) != hi-lo {
		return fmt.Errorf("version %v: lengths %d/%d/%d/%d, want %d", got.Z,
			len(got.Wave), len(got.Flux), len(got.Err), len(got.Flags), hi-lo)
	}
	for i := 0; i < hi-lo; i++ {
		if got.Wave[i] != want.Wave[lo+i] || got.Flux[i] != want.Flux[lo+i] ||
			got.Err[i] != want.Err[lo+i] || got.Flags[i] != want.Flags[lo+i] {
			return fmt.Errorf("version %v: sample %d is not that version's", got.Z, lo+i)
		}
	}
	return nil
}

// TestStoreReadsOneCommittedVersion races Get and GetSlice against a
// writer that keeps replacing the spectrum's four MAX arrays. A read
// takes the row and then dereferences its blob refs; both must come
// from one commit. When the blobs were read from live pages instead of
// the row's snapshot, the writer's next UPDATE could free and reuse
// those pages in between, and the reader got ErrBadRef, another
// version's samples, or bytes of a different column.
func TestStoreReadsOneCommittedVersion(t *testing.T) {
	const n = 4000
	l, err := wal.Open(wal.NewMemStorage(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(engine.Options{Disk: pages.NewMemDisk(), PoolPages: 1024, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	st, err := CreateStore(db, "spectra")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(versionedSpectrum(0, n)); err != nil {
		t.Fatal(err)
	}
	versions := 300
	if testing.Short() {
		versions = 60
	}

	done := make(chan struct{})
	errCh := make(chan error, 2)
	var wg sync.WaitGroup
	reader := func(read func(i int) (got *Spectrum, lo, hi int, err error)) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			got, lo, hi, err := read(i)
			if err == nil {
				err = sameSlice(got, versionedSpectrum(int(got.Z), n), lo, hi)
			}
			if err != nil {
				errCh <- err
				return
			}
		}
	}
	wg.Add(2)
	go reader(func(int) (*Spectrum, int, int, error) {
		s, err := st.Get(1)
		return s, 0, n, err
	})
	go reader(func(i int) (*Spectrum, int, int, error) {
		lo := (i * 37) % (n - 64)
		s, err := st.GetSlice(1, lo, lo+64)
		return s, lo, lo + 64, err
	})

	for v := 1; v <= versions && len(errCh) == 0; v++ {
		s := versionedSpectrum(v, n)
		vals := []engine.Value{engine.FloatValue(s.Z)}
		for _, col := range [][]float64{s.Wave, s.Flux, s.Err} {
			a, err := core.FromFloat64s(core.Max, core.Float64, col, n)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, engine.BinaryMaxValue(a.Bytes()))
		}
		flags, err := core.FromInt64s(core.Max, core.Int16, s.Flags, n)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, engine.BinaryMaxValue(flags.Bytes()))
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Close(st.Table().UpdateTx(tx, 1, []int{1, 2, 3, 4, 5}, vals)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if st := db.Blobs().Stats(); st.PagesReused == 0 {
		t.Error("no blob page was ever reused: the test did not exercise the hazard")
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames = %d", got)
	}
}
