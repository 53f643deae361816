package blob

import (
	"math/rand"
	"testing"

	"sqlarray/internal/pages"
)

func benchStore(b *testing.B, blobBytes int) (*Store, Ref) {
	b.Helper()
	s := NewStore(pages.NewBufferPool(pages.NewMemDisk(), 1<<15))
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, blobBytes)
	rng.Read(data)
	ref, err := s.Write(data, Codec{})
	if err != nil {
		b.Fatal(err)
	}
	return s, ref
}

func BenchmarkWrite1MB(b *testing.B) {
	data := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(pages.NewBufferPool(pages.NewMemDisk(), 1<<15))
		if _, err := s.Write(data, Codec{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadAll1MB(b *testing.B) {
	s, ref := benchStore(b, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadAll(ref); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartialRead4kOf1MB(b *testing.B) {
	s, ref := benchStore(b, 1<<20)
	dst := make([]byte, 4096)
	b.SetBytes(4096)
	var r Reader
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 37) % (1<<20 - 4096)
		if err := r.Open(s, ref); err != nil {
			b.Fatal(err)
		}
		if err := r.ReadRuns(dst, []Run{{SrcOff: off, Len: len(dst)}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadRunsStencil(b *testing.B) {
	// 64 runs of 512 bytes: the shape of an 8³ float64 stencil fetch.
	s, ref := benchStore(b, 1<<20)
	runs := make([]Run, 64)
	for i := range runs {
		runs[i] = Run{SrcOff: i * 8192, DstOff: i * 512, Len: 512}
	}
	dst := make([]byte, 64*512)
	b.SetBytes(64 * 512)
	var r Reader
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Open(s, ref); err != nil {
			b.Fatal(err)
		}
		if err := r.ReadRuns(dst, runs); err != nil {
			b.Fatal(err)
		}
	}
}
