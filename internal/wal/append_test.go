package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// goldenFrame is the record framing written out by hand:
// crc32 | payload len | type | lsn | payload, the CRC over everything
// after itself.
func goldenFrame(typ RecordType, lsn LSN, payload []byte) []byte {
	f := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(f[4:8], uint32(len(payload)))
	f[8] = byte(typ)
	binary.LittleEndian.PutUint64(f[9:], uint64(lsn))
	f = append(f, payload...)
	binary.LittleEndian.PutUint32(f[:4], crc32.ChecksumIEEE(f[4:]))
	return f
}

// TestAppendPartsMatchesJoinedFraming: a record appended as parts is
// byte for byte the golden framing of its joined payload, for the page
// image, page prefix and commit shapes the engine logs, and so is the
// whole segment.
func TestAppendPartsMatchesJoinedFraming(t *testing.T) {
	page := pattern(8192, 1)
	id := []byte{7, 0, 0, 0}
	records := []struct {
		typ   RecordType
		parts [][]byte
	}{
		{RecPageImage, [][]byte{id, page}},
		{RecPagePrefix, [][]byte{id, page[:96+1500]}},
		{RecCommit, [][]byte{[]byte(`{"tables":[{"name":"t","root":3}]}`)}},
		{RecCommit, nil}, // no parts: an empty payload
		{RecPageImage, [][]byte{nil, id, {}, page}}, // empty parts add nothing
	}
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, segHeaderSize) // magic, then base LSN 0
	copy(want, segMagic)
	for _, r := range records {
		lsn, err := l.Append(r.typ, r.parts...)
		if err != nil {
			t.Fatal(err)
		}
		joined := bytes.Join(r.parts, nil)
		if lsn != LSN(len(want)-segHeaderSize) {
			t.Fatalf("%v record at LSN %d, want %d", r.typ, lsn, len(want)-segHeaderSize)
		}
		want = append(want, goldenFrame(r.typ, lsn, joined)...)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, st.segs[0]); !bytes.Equal(got, want) {
		t.Fatalf("segment of %d bytes differs from the golden framing of %d", len(got), len(want))
	}
	if got := l.Stats().BytesLogged; got != uint64(len(want)-segHeaderSize) {
		t.Errorf("bytes logged = %d, want %d", got, len(want)-segHeaderSize)
	}
}

// TestAppendBufferIsBounded: appends past appendBufferLimit reach the
// segment before Sync, DurableLSN does not move until Sync, and a crash
// before Sync loses them like any unsynced record.
func TestAppendBufferIsBounded(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecCommit, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := l.DurableLSN()
	page := pattern(8196, 2)
	n := 3 * appendBufferLimit / len(page)
	for i := 0; i < n; i++ {
		if _, err := l.Append(RecPageImage, page); err != nil {
			t.Fatal(err)
		}
		if len(l.buf) > appendBufferLimit {
			t.Fatalf("append buffer holds %d bytes, limit %d", len(l.buf), appendBufferLimit)
		}
	}
	if got := l.DurableLSN(); got != durable {
		t.Fatalf("DurableLSN moved to %d without a Sync, want %d", got, durable)
	}
	size, _ := st.segs[0].Size()
	if written := size - segHeaderSize - int64(durable); written < 2*appendBufferLimit {
		t.Fatalf("%d unsynced bytes reached the segment, want >= %d", written, 2*appendBufferLimit)
	}
	if l.Stats().Syncs != 1 {
		t.Fatalf("%d syncs, want 1: writing the full buffer out must not sync", l.Stats().Syncs)
	}
	st.Crash()
	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, payloads, _ := collect(t, l2); len(payloads) != 1 || string(payloads[0]) != "durable" {
		t.Fatalf("after crash got %d records, want just \"durable\"", len(payloads))
	}

	// The same appends followed by a Sync all replay.
	for i := 0; i < n; i++ {
		if _, err := l2.Append(RecPageImage, page); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	l3, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads, _ := collect(t, l3)
	if len(payloads) != n+1 {
		t.Fatalf("replayed %d records, want %d", len(payloads), n+1)
	}
	for _, p := range payloads[1:] {
		if !bytes.Equal(p, page) {
			t.Fatal("a page record differs after replay")
		}
	}
}

// failAppendStorage wraps MemStorage so a test can make every later
// segment append fail.
type failAppendStorage struct {
	*MemStorage
	fail bool
}

func (f *failAppendStorage) Create(seq uint32) (Segment, error) {
	s, err := f.MemStorage.Create(seq)
	if err != nil {
		return nil, err
	}
	return &failAppendSegment{Segment: s, st: f}, nil
}

type failAppendSegment struct {
	Segment
	st *failAppendStorage
}

func (s *failAppendSegment) Append(p []byte) error {
	if s.st.fail {
		return errors.New("injected segment append failure")
	}
	return s.Segment.Append(p)
}

// TestFailedBufferWriteOutIsFinal: a segment append that fails while
// Append writes a full buffer out fails the log like a failed Sync —
// that Append and every later call return the error, and DurableLSN
// stays put.
func TestFailedBufferWriteOutIsFinal(t *testing.T) {
	st := &failAppendStorage{MemStorage: NewMemStorage()}
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecCommit, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := l.DurableLSN()
	st.fail = true
	page := pattern(8196, 4)
	var appendErr error
	for i := 0; i <= appendBufferLimit/len(page) && appendErr == nil; i++ {
		_, appendErr = l.Append(RecPageImage, page)
	}
	if appendErr == nil {
		t.Fatal("no Append wrote the full buffer out")
	}
	st.fail = false
	if _, err := l.Append(RecCommit, []byte("after")); err == nil {
		t.Error("Append after a failed write-out succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Error("Sync after a failed write-out succeeded")
	}
	if got := l.DurableLSN(); got != durable {
		t.Errorf("DurableLSN = %d after the failure, want %d", got, durable)
	}
}
