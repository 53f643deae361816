// Page free-list and blob reclamation.
//
// The seed store could only ever grow: overwriting or deleting a MAX
// value leaked its chunk and directory pages forever, because nothing
// recorded that they were dead. The store now keeps a persistent
// free-list — a stack of TypeFree pages threaded through their Next
// links, with the head pointer stored on the reserved metadata page 0 —
// and every allocation pops it before extending the file. Free(ref)
// pushes a blob's chunk and directory pages onto the list; the engine
// routes every rewrite and delete path through it, so steady-state
// update workloads stop growing the database file.
//
// All free-list mutations happen on the single-writer path (the engine
// holds its database write lock), so no extra locking is needed beyond
// the buffer pool's own.
package blob

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sqlarray/internal/pages"
)

// freeHead reads the free-list head page id from the metadata page.
func (s *Store) freeHead() (pages.PageID, error) {
	f, err := s.bp.Fetch(0)
	if err != nil {
		return 0, err
	}
	defer s.bp.Unpin(f, false)
	if f.Page.Type() != pages.TypeMeta {
		return 0, nil // never initialized: empty free list
	}
	return pages.PageID(binary.LittleEndian.Uint32(f.Page.Body())), nil
}

// setFreeHead stores the free-list head, initializing the metadata page
// on first use.
func (s *Store) setFreeHead(id pages.PageID) error {
	f, err := s.bp.FetchForWrite(0)
	if err != nil {
		return err
	}
	if f.Page.Type() != pages.TypeMeta {
		f.Page.Init(pages.TypeMeta)
	}
	binary.LittleEndian.PutUint32(f.Page.Body(), uint32(id))
	s.bp.Unpin(f, true)
	return nil
}

// allocPage returns a pinned, initialized page of the given type,
// serving from the free list when possible and extending the file
// otherwise. The caller owns the pin (and must Unpin dirty).
func (s *Store) allocPage(t pages.PageType) (*pages.Frame, error) {
	head, err := s.freeHead()
	if err != nil {
		return nil, err
	}
	if head == pages.InvalidPageID {
		return s.bp.NewPage(t)
	}
	f, err := s.bp.FetchForWrite(head)
	if err != nil {
		return nil, err
	}
	if f.Page.Type() != pages.TypeFree {
		s.bp.Unpin(f, false)
		return nil, fmt.Errorf("blob: free-list head page %d has type %d, not free", head, f.Page.Type())
	}
	next := f.Page.Next()
	if err := s.setFreeHead(next); err != nil {
		s.bp.Unpin(f, false)
		return nil, err
	}
	f.Page.Init(t)
	s.stats.pagesReused.Add(1)
	return f, nil
}

// freePages pushes the given pages onto the persistent free list,
// retyping them TypeFree.
func (s *Store) freePages(ids []pages.PageID) error {
	if len(ids) == 0 {
		return nil
	}
	head, err := s.freeHead()
	if err != nil {
		return err
	}
	for _, id := range ids {
		f, err := s.bp.FetchForWrite(id)
		if err != nil {
			return err
		}
		f.Page.Init(pages.TypeFree)
		f.Page.SetNext(head)
		s.bp.Unpin(f, true)
		head = id
		s.stats.pagesFreed.Add(1)
	}
	return s.setFreeHead(head)
}

// Free returns every page of a blob — chunk pages and directory pages —
// to the free list. A null ref is a no-op. The ref must not be used
// afterward; reading a freed blob returns type-mismatch errors (the
// pages are retyped TypeFree).
func (s *Store) Free(ref Ref) error {
	if ref.IsNull() {
		return nil
	}
	var dirIDs []pages.PageID
	chunks, err := s.walkDir(ref, nil, &dirIDs)
	if err != nil {
		return err
	}
	ids := make([]pages.PageID, 0, len(chunks)+len(dirIDs))
	for _, ci := range chunks {
		ids = append(ids, ci.id)
	}
	ids = append(ids, dirIDs...)
	return s.freePages(ids)
}

// FreeListLen walks the free list and returns its length (test hook).
func (s *Store) FreeListLen() (int, error) {
	id, err := s.freeHead()
	if err != nil {
		return 0, err
	}
	n := 0
	for id != pages.InvalidPageID {
		f, err := s.bp.Fetch(id)
		if err != nil {
			return 0, err
		}
		if f.Page.Type() != pages.TypeFree {
			s.bp.Unpin(f, false)
			return 0, fmt.Errorf("blob: free-list page %d has type %d", id, f.Page.Type())
		}
		next := f.Page.Next()
		s.bp.Unpin(f, false)
		id = next
		n++
		if n > s.bp.Disk().NumPages() {
			return 0, fmt.Errorf("blob: free-list cycle detected")
		}
	}
	return n, nil
}

// WriteRuns writes a batch of partial updates into an existing blob,
// described as runs where SrcOff addresses the stored blob and DstOff
// addresses the src buffer — the write-side mirror of ReadRuns, sharing
// one directory walk and touching only the chunk pages the runs cover.
// This is the storage half of in-place subarray updates: rewriting a
// slice of a multi-chunk array dirties (and later logs) only the chunks
// the slice lands on, never the whole blob.
//
// Each touched chunk is decoded whole, patched, and re-encoded on its
// block grid under the codec its header records, so raw blocks stay
// raw. If the re-encoded chunk no longer fits its page (the new bytes
// compress worse), the chunk is split across additional pages and the
// directory chain is rewritten in place — the blob's Ref (its root page
// and length) never changes.
func (s *Store) WriteRuns(ref Ref, src []byte, runs []Run) error {
	if len(runs) == 0 {
		return nil
	}
	if ref.IsNull() {
		return fmt.Errorf("%w: null blob", ErrBadRef)
	}
	var dirIDs []pages.PageID
	chunks, err := s.walkDir(ref, nil, &dirIDs)
	if err != nil {
		return err
	}
	for _, r := range runs {
		if r.Len <= 0 {
			return fmt.Errorf("%w: run length %d", ErrShortRead, r.Len)
		}
		if r.SrcOff < 0 || int64(r.SrcOff+r.Len) > ref.Length {
			return fmt.Errorf("%w: run [%d,%d) of %d", ErrShortRead, r.SrcOff, r.SrcOff+r.Len, ref.Length)
		}
		if r.DstOff < 0 || r.DstOff+r.Len > len(src) {
			return fmt.Errorf("%w: source range [%d,%d) of %d", ErrShortRead, r.DstOff, r.DstOff+r.Len, len(src))
		}
	}
	return s.writeRuns(ref, src, runs, chunks, dirIDs)
}

// chunkPatch is one contiguous span to overwrite within a chunk:
// chunk-relative offset and a span of src.
type chunkPatch struct {
	chunkOff, srcOff, n int
}

// writeRuns patches the chunks the runs touch: decode each whole chunk,
// apply every run span landing on it, re-encode on the chunk-local
// block grid under the codec its header records, and rewrite — in
// place when the result still fits the page, splitting into freshly
// allocated pages (and rewriting the directory) when it does not.
func (s *Store) writeRuns(ref Ref, src []byte, runs []Run, chunks []chunkInfo, dirIDs []pages.PageID) error {
	// Group the runs' spans by touched chunk so each chunk is decoded
	// and re-encoded exactly once no matter how many runs land on it.
	patches := make(map[int][]chunkPatch)
	touched := make([]int, 0, len(runs))
	for _, r := range runs {
		read := 0
		for c := findChunk(chunks, int64(r.SrcOff)); read < r.Len; c++ {
			ci := chunks[c]
			lo := int(int64(r.SrcOff+read) - ci.off)
			span := ci.n - lo
			if rem := r.Len - read; span > rem {
				span = rem
			}
			if _, ok := patches[c]; !ok {
				touched = append(touched, c)
			}
			patches[c] = append(patches[c], chunkPatch{lo, r.DstOff + read, span})
			read += span
		}
	}
	sort.Ints(touched)
	scr := scratchPool.Get().(*codecScratch)
	defer scratchPool.Put(scr)
	replacements := make(map[int][]chunkInfo)
	for _, c := range touched {
		ci := chunks[c]
		f, err := s.bp.FetchForWrite(ci.id)
		if err != nil {
			return err
		}
		if f.Page.Type() != pages.TypeBlobData {
			s.bp.Unpin(f, false)
			return fmt.Errorf("%w: page %d is not a blob chunk", ErrBadRef, ci.id)
		}
		codec, err := chunkCodec(&f.Page)
		if err != nil {
			s.bp.Unpin(f, false)
			return err
		}
		buf := make([]byte, ci.n)
		if err := decodeBlocks(&f.Page, buf, 0, ci.n, scr); err != nil {
			s.bp.Unpin(f, false)
			return err
		}
		patched := 0
		for _, p := range patches[c] {
			copy(buf[p.chunkOff:p.chunkOff+p.n], src[p.srcOff:p.srcOff+p.n])
			patched += p.n
		}
		// Re-encode on the chunk-local BlockSize grid. Chunk logical
		// starts are always block-aligned (packing never splits a
		// block), so the grid is stable across rewrites.
		blocks, stage := encodeBlocks(buf, codec, scr)
		plan := packBlocks(blocks)
		if len(plan) == 1 {
			w := fillChunkPage(&f.Page, codec, blocks, stage)
			s.bp.Unpin(f, true)
			s.stats.chunksWritten.Add(1)
			s.stats.bytesWritten.Add(uint64(patched))
			s.stats.storedBytesWritten.Add(uint64(w))
			continue
		}
		// Split: the patched bytes compress worse and no longer fit one
		// page. The first part reuses this page (keeping its id); the
		// rest get fresh pages.
		repl := make([]chunkInfo, 0, len(plan))
		for i, pk := range plan {
			frame := f
			if i > 0 {
				frame, err = s.allocPage(pages.TypeBlobData)
				if err != nil {
					return err
				}
			}
			w := fillChunkPage(&frame.Page, codec, blocks[pk.first:pk.first+pk.n], stage)
			repl = append(repl, chunkInfo{id: frame.Page.ID, n: pk.logical})
			s.bp.Unpin(frame, true)
			s.stats.chunksWritten.Add(1)
			s.stats.storedBytesWritten.Add(uint64(w))
		}
		s.stats.bytesWritten.Add(uint64(patched))
		replacements[c] = repl
	}
	if len(replacements) == 0 {
		return nil
	}
	// Splice the split chunks into the chunk list, recompute logical
	// offsets, and rewrite the directory chain in place.
	rebuilt := make([]chunkInfo, 0, len(chunks)+2*len(replacements))
	for i, ci := range chunks {
		if repl, ok := replacements[i]; ok {
			rebuilt = append(rebuilt, repl...)
		} else {
			rebuilt = append(rebuilt, ci)
		}
	}
	var off int64
	for i := range rebuilt {
		rebuilt[i].off = off
		off += int64(rebuilt[i].n)
	}
	if off != ref.Length {
		return fmt.Errorf("%w: rewrite covers %d bytes, ref declares %d", ErrBadRef, off, ref.Length)
	}
	return s.rewriteDirectory(dirIDs, rebuilt)
}

// rewriteDirectory rewrites a blob's directory chain in place to
// describe chunks: writeDirectory fed the chain's own pages first, then
// fresh ones when the chunk list outgrew it; surplus pages are freed
// when it shrank. The first directory page is always reused, so the
// blob's Ref never changes.
func (s *Store) rewriteDirectory(dirIDs []pages.PageID, chunks []chunkInfo) error {
	di := 0
	sink := s.reuseSink()
	sink.alloc = func(t pages.PageType) (*pages.Frame, error) {
		if di == len(dirIDs) {
			return s.allocPage(t)
		}
		f, err := s.bp.FetchForWrite(dirIDs[di])
		if err != nil {
			return nil, err
		}
		if f.Page.Type() != t {
			s.bp.Unpin(f, false)
			return nil, fmt.Errorf("%w: page %d is not a blob directory", ErrBadRef, dirIDs[di])
		}
		di++
		return f, nil
	}
	if _, err := s.writeDirectory(chunks, sink); err != nil {
		return err
	}
	return s.freePages(dirIDs[di:])
}
