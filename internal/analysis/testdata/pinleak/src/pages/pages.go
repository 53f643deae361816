// Package pages mocks the real buffer pool's shape: just enough surface
// (types, method names, signatures) for the type-matched analyzers to
// trigger on the short import path "pages".
package pages

type PageID uint64

type Frame struct{ ID PageID }

func (f *Frame) Data() []byte { return nil }

type BufferPool struct{}

func (bp *BufferPool) Fetch(id PageID) (*Frame, error)         { return &Frame{ID: id}, nil }
func (bp *BufferPool) FetchForWrite(id PageID) (*Frame, error) { return &Frame{ID: id}, nil }
func (bp *BufferPool) NewPage() (*Frame, error)                { return &Frame{}, nil }
func (bp *BufferPool) Unpin(f *Frame, dirty bool)              {}

// Fetcher is the read-side interface both the pool and a snapshot
// implement; trees and blob stores hold one.
type Fetcher interface {
	Fetch(id PageID) (*Frame, error)
	Unpin(f *Frame, dirty bool)
}

type Snapshot struct{}

func (sn *Snapshot) Fetch(id PageID) (*Frame, error) { return &Frame{ID: id}, nil }
func (sn *Snapshot) Unpin(f *Frame, dirty bool)      {}
