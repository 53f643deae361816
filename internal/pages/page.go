// Package pages implements the lowest storage layer of the sqlarray
// engine: fixed 8 kB pages with a slotted-record layout, pluggable disk
// managers (in-memory and file-backed), and an LRU buffer pool with I/O
// accounting.
//
// The geometry deliberately mirrors Microsoft SQL Server's storage engine
// as described in §3.3 of the paper: 8 kB data pages with a 96-byte page
// header, so that "blobs smaller than 8 kB are stored on-page" has the
// same meaning here as there.
package pages

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// PageSize is the fixed page size (8 kB, as in SQL Server).
	PageSize = 8192
	// HeaderSize is the reserved page header area (96 bytes, as in SQL
	// Server). Slotted records live between HeaderSize and the slot
	// directory growing down from the end of the page.
	HeaderSize = 96
	// slotSize is one slot-directory entry: uint16 offset + uint16 length.
	slotSize = 4
	// MaxRecordSize is the largest record a single page can hold.
	MaxRecordSize = PageSize - HeaderSize - slotSize
)

// PageID identifies a page within a database file. Page 0 is reserved for
// file metadata, so 0 doubles as the invalid/absent page id.
type PageID uint32

// InvalidPageID marks "no page" in link fields.
const InvalidPageID PageID = 0

// PageType tags what a page is used for.
type PageType uint8

const (
	TypeFree PageType = iota
	TypeMeta
	TypeData     // slotted heap/B-tree leaf records
	TypeIndex    // B-tree internal nodes
	TypeBlobData // out-of-page blob chunk
	TypeBlobTree // out-of-page blob chunk directory
)

// Header field offsets within the 96-byte page header.
const (
	offMagic    = 0  // uint16
	offType     = 2  // uint8
	_           = 3  // uint8 reserved
	offSlots    = 4  // uint16 number of slots
	offFreeLo   = 6  // uint16 start of free space
	offFreeHi   = 8  // uint16 end of free space (start of used record area)
	offNext     = 12 // uint32 next page link
	offPrev     = 16 // uint32 prev page link
	_           = 20 // uint32 reserved
	offUsed     = 24 // uint32 used payload bytes (blob pages)
	offLSN      = 32 // uint64 log sequence number (reserved)
	offChecksum = 40 // uint32 CRC32 of page body
)

const pageMagic = 0x5153 // "SQ"

// Errors returned by the page layer.
var (
	ErrPageFull    = errors.New("pages: page full")
	errBadSlot     = errors.New("pages: invalid slot")
	errChecksum    = errors.New("pages: checksum mismatch")
	errBadPage     = errors.New("pages: malformed page")
	ErrOutOfBounds = errors.New("pages: page id out of bounds")
)

// Page is an 8 kB buffer with typed accessors for the header fields and a
// slotted record area. Page contents are what goes to disk verbatim.
type Page struct {
	ID  PageID
	Buf [PageSize]byte
}

// Init formats the page in place with the given type and empty record area.
func (p *Page) Init(t PageType) {
	for i := range p.Buf {
		p.Buf[i] = 0
	}
	binary.LittleEndian.PutUint16(p.Buf[offMagic:], pageMagic)
	p.Buf[offType] = byte(t)
	p.setFreeLo(HeaderSize)
	p.setFreeHi(PageSize)
}

// Type returns the page type tag.
func (p *Page) Type() PageType { return PageType(p.Buf[offType]) }

// NumSlots returns the number of slot-directory entries (including dead
// slots left by deletions).
func (p *Page) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.Buf[offSlots:]))
}

func (p *Page) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.Buf[offSlots:], uint16(n))
}

func (p *Page) freeLo() int { return int(binary.LittleEndian.Uint16(p.Buf[offFreeLo:])) }
func (p *Page) freeHi() int { return int(binary.LittleEndian.Uint16(p.Buf[offFreeHi:])) }
func (p *Page) setFreeLo(v int) {
	binary.LittleEndian.PutUint16(p.Buf[offFreeLo:], uint16(v))
}
func (p *Page) setFreeHi(v int) {
	if v == PageSize {
		// PageSize does not fit uint16; store 0 and decode specially.
		binary.LittleEndian.PutUint16(p.Buf[offFreeHi:], 0)
		return
	}
	binary.LittleEndian.PutUint16(p.Buf[offFreeHi:], uint16(v))
}

func (p *Page) freeHiDecoded() int {
	v := p.freeHi()
	if v == 0 {
		return PageSize
	}
	return v
}

// Next returns the next-page link (chain pointer).
func (p *Page) Next() PageID { return PageID(binary.LittleEndian.Uint32(p.Buf[offNext:])) }

// SetNext stores the next-page link.
func (p *Page) SetNext(id PageID) { binary.LittleEndian.PutUint32(p.Buf[offNext:], uint32(id)) }

// Prev returns the previous-page link.
func (p *Page) Prev() PageID { return PageID(binary.LittleEndian.Uint32(p.Buf[offPrev:])) }

// SetPrev stores the previous-page link.
func (p *Page) SetPrev(id PageID) { binary.LittleEndian.PutUint32(p.Buf[offPrev:], uint32(id)) }

// LSN returns the page's log sequence number: the WAL position of the
// record holding this page's image when it was last logged. Zero means
// the page predates the WAL (or was never logged).
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.Buf[offLSN:]) }

// SetLSN stamps the page's log sequence number; the engine calls it
// just before appending the page image to the WAL, so the logged image
// carries its own LSN.
func (p *Page) SetLSN(v uint64) { binary.LittleEndian.PutUint64(p.Buf[offLSN:], v) }

// Used returns the used-bytes counter (blob pages track their chunk
// length here).
func (p *Page) Used() int { return int(binary.LittleEndian.Uint32(p.Buf[offUsed:])) }

// SetUsed stores the used-bytes counter.
func (p *Page) SetUsed(v int) { binary.LittleEndian.PutUint32(p.Buf[offUsed:], uint32(v)) }

// Body returns the non-header portion of the page (blob pages hold their
// chunk or directory there).
func (p *Page) Body() []byte { return p.Buf[HeaderSize:] }

// FreeSpace returns the bytes available for one more record (accounting
// for its slot entry).
func (p *Page) FreeSpace() int {
	free := p.freeHiDecoded() - p.freeLo() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// slotAt returns the byte offset of slot i's directory entry.
func slotAt(i int) int { return PageSize - (i+1)*slotSize }

// slot returns the (offset, length) stored in slot i.
func (p *Page) slot(i int) (off, ln int) {
	base := slotAt(i)
	return int(binary.LittleEndian.Uint16(p.Buf[base:])),
		int(binary.LittleEndian.Uint16(p.Buf[base+2:]))
}

func (p *Page) setSlot(i, off, ln int) {
	base := slotAt(i)
	binary.LittleEndian.PutUint16(p.Buf[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.Buf[base+2:], uint16(ln))
}

// Insert appends a record and returns its slot number.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("%w: record %d bytes > max %d", ErrPageFull, len(rec), MaxRecordSize)
	}
	if p.FreeSpace() < len(rec) {
		return 0, ErrPageFull
	}
	n := p.NumSlots()
	off := p.freeLo()
	copy(p.Buf[off:], rec)
	p.setSlot(n, off, len(rec))
	p.setFreeLo(off + len(rec))
	// Slot directory grows downward; freeHi tracks its lower edge.
	p.setFreeHi(slotAt(n))
	p.setNumSlots(n + 1)
	return n, nil
}

// InsertAt inserts a record so that it occupies slot position pos,
// shifting later slot-directory entries up by one. B-tree nodes use this
// to keep records in key order.
func (p *Page) InsertAt(pos int, rec []byte) error {
	n := p.NumSlots()
	if pos < 0 || pos > n {
		return fmt.Errorf("%w: insert position %d of %d", errBadSlot, pos, n)
	}
	if p.FreeSpace() < len(rec) {
		return ErrPageFull
	}
	off := p.freeLo()
	copy(p.Buf[off:], rec)
	p.setFreeLo(off + len(rec))
	// Shift slots [pos, n) up to [pos+1, n+1).
	for i := n; i > pos; i-- {
		o, l := p.slot(i - 1)
		p.setSlot(i, o, l)
	}
	p.setSlot(pos, off, len(rec))
	p.setNumSlots(n + 1)
	p.setFreeHi(slotAt(n))
	return nil
}

// RemoveAt deletes the slot-directory entry at pos entirely, shifting
// later entries down (record space becomes garbage until Compact).
func (p *Page) RemoveAt(pos int) error {
	n := p.NumSlots()
	if pos < 0 || pos >= n {
		return fmt.Errorf("%w: remove position %d of %d", errBadSlot, pos, n)
	}
	for i := pos; i < n-1; i++ {
		o, l := p.slot(i + 1)
		p.setSlot(i, o, l)
	}
	p.setNumSlots(n - 1)
	if n-1 > 0 {
		p.setFreeHi(slotAt(n - 2))
	} else {
		p.setFreeHi(PageSize)
	}
	return nil
}

// Record returns the bytes of slot i, aliasing the page buffer. A zero
// length marks a dead (deleted) slot and returns errBadSlot.
func (p *Page) Record(i int) ([]byte, error) {
	if i < 0 || i >= p.NumSlots() {
		return nil, fmt.Errorf("%w: slot %d of %d", errBadSlot, i, p.NumSlots())
	}
	off, ln := p.slot(i)
	if ln == 0 {
		return nil, fmt.Errorf("%w: slot %d is dead", errBadSlot, i)
	}
	if off < HeaderSize || off+ln > PageSize {
		return nil, fmt.Errorf("%w: slot %d points outside page", errBadPage, i)
	}
	return p.Buf[off : off+ln], nil
}

// Delete marks slot i dead. Space is reclaimed only by Compact.
func (p *Page) Delete(i int) error {
	if i < 0 || i >= p.NumSlots() {
		return fmt.Errorf("%w: slot %d of %d", errBadSlot, i, p.NumSlots())
	}
	p.setSlot(i, 0, 0)
	return nil
}

// Update replaces slot i's record. If the new record is no longer than
// the old one it is updated in place; otherwise it must fit the free
// space (the old space becomes garbage until Compact).
func (p *Page) Update(i int, rec []byte) error {
	if i < 0 || i >= p.NumSlots() {
		return fmt.Errorf("%w: slot %d of %d", errBadSlot, i, p.NumSlots())
	}
	off, ln := p.slot(i)
	if ln == 0 {
		return fmt.Errorf("%w: slot %d is dead", errBadSlot, i)
	}
	if len(rec) <= ln {
		copy(p.Buf[off:], rec)
		p.setSlot(i, off, len(rec))
		return nil
	}
	if p.freeHiDecoded()-p.freeLo() < len(rec) {
		return ErrPageFull
	}
	n := p.freeLo()
	copy(p.Buf[n:], rec)
	p.setSlot(i, n, len(rec))
	p.setFreeLo(n + len(rec))
	return nil
}

// Compact rewrites the record area dropping dead-slot garbage, preserving
// slot numbering (dead slots stay dead).
func (p *Page) Compact() {
	var tmp [PageSize]byte
	w := HeaderSize
	n := p.NumSlots()
	type ent struct{ off, ln int }
	ents := make([]ent, n)
	for i := 0; i < n; i++ {
		off, ln := p.slot(i)
		if ln == 0 {
			continue
		}
		copy(tmp[w:], p.Buf[off:off+ln])
		ents[i] = ent{w, ln}
		w += ln
	}
	copy(p.Buf[HeaderSize:w], tmp[HeaderSize:w])
	for i := 0; i < n; i++ {
		if ents[i].ln != 0 {
			p.setSlot(i, ents[i].off, ents[i].ln)
		}
	}
	p.setFreeLo(w)
}

// LiveRecords returns the number of non-dead slots.
func (p *Page) LiveRecords() int {
	live := 0
	for i := 0; i < p.NumSlots(); i++ {
		if _, ln := p.slot(i); ln != 0 {
			live++
		}
	}
	return live
}

// UpdateChecksum recomputes and stores the page checksum. Called by the
// buffer pool before a page is written out.
func (p *Page) UpdateChecksum() {
	binary.LittleEndian.PutUint32(p.Buf[offChecksum:], 0)
	sum := crc32.ChecksumIEEE(p.Buf[:])
	binary.LittleEndian.PutUint32(p.Buf[offChecksum:], sum)
}

// VerifyChecksum validates the stored checksum; zero (never written)
// checksums pass, matching freshly allocated pages.
func (p *Page) VerifyChecksum() error {
	stored := binary.LittleEndian.Uint32(p.Buf[offChecksum:])
	if stored == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(p.Buf[offChecksum:], 0)
	sum := crc32.ChecksumIEEE(p.Buf[:])
	binary.LittleEndian.PutUint32(p.Buf[offChecksum:], stored)
	if sum != stored {
		return fmt.Errorf("%w: page %d: stored %08x computed %08x", errChecksum, p.ID, stored, sum)
	}
	return nil
}

// Validate performs structural sanity checks on a page read from disk.
func (p *Page) Validate() error {
	if binary.LittleEndian.Uint16(p.Buf[offMagic:]) != pageMagic {
		return fmt.Errorf("%w: page %d: bad magic", errBadPage, p.ID)
	}
	if p.freeLo() < HeaderSize || p.freeLo() > PageSize {
		return fmt.Errorf("%w: page %d: freeLo %d", errBadPage, p.ID, p.freeLo())
	}
	return nil
}
