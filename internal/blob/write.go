package blob

import (
	"encoding/binary"

	"sqlarray/internal/pages"
)

// Page sinks: blob writes are parameterized over where pages come from
// and what happens when one is complete, so the transactional path and
// the bulk-ingest path share one layout implementation.
//
//   - The reuse sink (Write) allocates through the free
//     list — which mutates shared committed pages (the free-list head
//     and the meta page), so it is only legal inside a write capture —
//     and simply unpins completed pages; the enclosing Tx commit logs
//     them from the capture set.
//   - The fresh sink (WriteFresh) allocates brand-new pages only, never
//     touching the free list, and hands each completed page to the
//     caller while still pinned so its WAL image can be streamed out
//     immediately. That makes it safe to run OUTSIDE a capture: no
//     shared state is written, and logged pages become evictable as
//     soon as the log syncs past them — bounded memory for arbitrarily
//     large loads.
type pageSink struct {
	alloc  func(typ pages.PageType) (*pages.Frame, error)
	finish func(f *pages.Frame) error
}

// reuseSink is the transactional allocation policy (free list first).
func (s *Store) reuseSink() pageSink {
	return pageSink{
		alloc: s.allocPage,
		finish: func(f *pages.Frame) error {
			s.bp.Unpin(f, true)
			return nil
		},
	}
}

// Write stores data as a new blob under codec c and returns its Ref
// (the zero Codec, codecNone and unknown kinds store raw blocks). If
// the blocks packed under c would not occupy fewer chunk pages than raw
// blocks (NumChunks), the blob is stored as raw blocks under the zero
// Codec instead — compression never costs pages, and a read of a raw
// block decodes nothing: VisitRuns lends its bytes as they lie on the
// page. Pages come from the free list.
func (s *Store) Write(data []byte, c Codec) (Ref, error) {
	return s.write(data, c, s.reuseSink())
}

// WriteFresh is Write on freshly allocated pages only,
// bypassing the free list. onPage is invoked for every completed page
// while it is still pinned — the bulk loader streams the page image
// into the WAL there — and may be nil.
func (s *Store) WriteFresh(data []byte, c Codec, onPage func(f *pages.Frame) error) (Ref, error) {
	return s.write(data, c, pageSink{
		alloc: func(typ pages.PageType) (*pages.Frame, error) {
			return s.bp.NewPage(typ)
		},
		finish: func(f *pages.Frame) error {
			var err error
			if onPage != nil {
				err = onPage(f)
			}
			s.bp.Unpin(f, true)
			return err
		},
	})
}

// write is the one blob writer: it lays data out as chunk pages taken
// from sink — blocks packed under c when that saves at least one page,
// raw blocks otherwise — followed by the directory chain describing
// them.
func (s *Store) write(data []byte, c Codec, sink pageSink) (Ref, error) {
	if len(data) == 0 {
		return Ref{}, nil
	}
	switch c.Kind {
	case CodecLZ, CodecXOR:
		if c.Width < 1 || c.Width > 255 {
			c.Width = 1
		}
		if c.Phase < 0 || c.Phase > 7 {
			c.Phase = 0
		}
	default:
		c = Codec{}
	}
	scr := scratchPool.Get().(*codecScratch)
	defer scratchPool.Put(scr)
	blocks, stage := encodeBlocks(data, c, scr)
	plan := packBlocks(blocks)
	if c != (Codec{}) && len(plan) >= NumChunks(int64(len(data))) {
		// c saves no page: store raw blocks, and record the zero Codec in
		// the chunk headers so WriteRuns keeps them raw.
		c = Codec{}
		blocks, stage = encodeBlocks(data, c, scr)
		plan = packBlocks(blocks)
	}
	chunks := make([]chunkInfo, 0, len(plan))
	var off int64
	for _, pk := range plan {
		f, err := sink.alloc(pages.TypeBlobData)
		if err != nil {
			return Ref{}, err
		}
		w := fillChunkPage(&f.Page, c, blocks[pk.first:pk.first+pk.n], stage)
		s.stats.storedBytesWritten.Add(uint64(w))
		chunks = append(chunks, chunkInfo{id: f.Page.ID, off: off, n: pk.logical})
		off += int64(pk.logical)
		if err := sink.finish(f); err != nil {
			return Ref{}, err
		}
		s.stats.chunksWritten.Add(1)
	}
	s.stats.bytesWritten.Add(uint64(len(data)))
	root, err := s.writeDirectory(chunks, sink)
	if err != nil {
		return Ref{}, err
	}
	return Ref{Root: root, Length: int64(len(data))}, nil
}

// writeDirectory lays the chunk list into a chain of directory pages
// taken from sink, as 8-byte (page id, logical length) entries, and
// returns the first page id.
func (s *Store) writeDirectory(chunks []chunkInfo, sink pageSink) (pages.PageID, error) {
	var first pages.PageID
	var prev *pages.Frame
	for len(chunks) > 0 {
		n := min(len(chunks), chunkSize/dirEntrySize)
		f, err := sink.alloc(pages.TypeBlobTree)
		if err != nil {
			if prev != nil {
				s.bp.Unpin(prev, true)
			}
			return 0, err
		}
		body := f.Page.Body()
		for i, ci := range chunks[:n] {
			binary.LittleEndian.PutUint32(body[dirEntrySize*i:], uint32(ci.id))
			binary.LittleEndian.PutUint32(body[dirEntrySize*i+4:], uint32(ci.n))
		}
		f.Page.SetUsed(n * dirEntrySize)
		f.Page.SetNext(pages.InvalidPageID)
		if prev == nil {
			first = f.Page.ID
		} else {
			prev.Page.SetNext(f.Page.ID)
			if err := sink.finish(prev); err != nil {
				s.bp.Unpin(f, true)
				return 0, err
			}
		}
		prev = f
		chunks = chunks[n:]
	}
	if prev != nil {
		if err := sink.finish(prev); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// encBlock is one encoded block staged before page packing: header
// fields plus a span of the shared staging buffer.
type encBlock struct {
	format, width  byte
	logical        int
	payOff, payLen int
}

// chunkPlan assigns a run of staged blocks to one chunk page.
type chunkPlan struct {
	first, n, stored, logical int
}

// encodeBlocks cuts data on the BlockSize grid and encodes every block
// under c, returning the block headers and the staging buffer holding
// their payloads. Blocks that fail to shrink are staged raw.
func encodeBlocks(data []byte, c Codec, scr *codecScratch) ([]encBlock, []byte) {
	var stage []byte
	blocks := make([]encBlock, 0, (len(data)+BlockSize-1)/BlockSize)
	for off := 0; off < len(data); off += BlockSize {
		end := off + BlockSize
		if end > len(data) {
			end = len(data)
		}
		format, width, payload := encodeBlock(data[off:end], c, scr)
		blocks = append(blocks, encBlock{
			format:  format,
			width:   width,
			logical: end - off,
			payOff:  len(stage),
			payLen:  len(payload),
		})
		stage = append(stage, payload...)
	}
	return blocks, stage
}

// packBlocks greedily assigns staged blocks to chunk pages, bounded by
// the page payload capacity and maxBlocksPerChunk.
func packBlocks(blocks []encBlock) []chunkPlan {
	var plan []chunkPlan
	cur := chunkPlan{}
	for i, b := range blocks {
		need := blockHdrSize + b.payLen
		if cur.n > 0 && (cur.stored+need > chunkPayloadCap || cur.n == maxBlocksPerChunk) {
			plan = append(plan, cur)
			cur = chunkPlan{}
		}
		if cur.n == 0 {
			cur.first = i
		}
		cur.n++
		cur.stored += need
		cur.logical += b.logical
	}
	if cur.n > 0 {
		plan = append(plan, cur)
	}
	return plan
}

// fillChunkPage lays one chunk plan's blocks into a page body and
// stamps the chunk header (format version, block count, and the blob's
// preferred codec so in-place rewrites re-encode with the writer's
// intent). Returns the stored byte count (the page's Used).
func fillChunkPage(p *pages.Page, c Codec, blocks []encBlock, stage []byte) int {
	body := p.Body()
	body[0] = chunkFormatVersion
	binary.LittleEndian.PutUint16(body[1:], uint16(len(blocks)))
	body[3] = byte(c.Kind)
	body[4] = byte(c.Width)
	body[5] = byte(c.Phase & 7)
	body[6], body[7] = 0, 0
	w := chunkHdrSize
	for _, b := range blocks {
		body[w] = b.format
		body[w+1] = b.width
		binary.LittleEndian.PutUint16(body[w+2:], uint16(b.payLen))
		binary.LittleEndian.PutUint16(body[w+4:], uint16(b.logical))
		body[w+6], body[w+7] = 0, 0
		copy(body[w+blockHdrSize:], stage[b.payOff:b.payOff+b.payLen])
		w += blockHdrSize + b.payLen
	}
	p.SetUsed(w)
	return w
}
