package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// collect replays the log into a slice of (type, payload) pairs.
func collect(t *testing.T, l *Log) (types []RecordType, payloads [][]byte, lsns []LSN) {
	t.Helper()
	err := l.Recover(func(lsn LSN, typ RecordType, payload []byte) error {
		lsns = append(lsns, lsn)
		types = append(types, typ)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return
}

func TestAppendSyncDurable(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != 0 {
		t.Fatalf("fresh log durable LSN = %d", got)
	}
	l1, err := l.Append(RecCommit, []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := l.Append(RecCommit, []byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if l2 <= l1 {
		t.Fatalf("LSNs not increasing: %d then %d", l1, l2)
	}
	if got := l.DurableLSN(); got != 0 {
		t.Fatalf("durable LSN advanced before Sync: %d", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := LSN(l.DurableLSN()), l2+FrameSize(3); got != want {
		t.Fatalf("durable LSN = %d, want %d", got, want)
	}
	if records, syncs := l.records.Load(), l.syncs.Load(); records != 2 || syncs != 1 {
		t.Fatalf("%d records, %d syncs, want 2, 1", records, syncs)
	}
}

func TestReplayRoundTripAcrossReopen(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	for _, p := range want {
		if _, err := l.Append(RecPageImage, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads, lsns := collect(t, l2)
	if len(payloads) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(payloads), len(want))
	}
	for i := range want {
		if !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, payloads[i], want[i])
		}
	}
	// Appends after reopen continue the LSN sequence.
	nl, err := l2.Append(RecCommit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nl <= lsns[len(lsns)-1] {
		t.Fatalf("post-reopen LSN %d not past %d", nl, lsns[len(lsns)-1])
	}
}

func TestCrashDropsUnsyncedTail(t *testing.T) {
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
	if _, err := l.Append(RecCommit, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	// No Sync: the second record lives only in the append buffer (and
	// would be lost even without Crash), but write it to the segment
	// without an fsync to exercise the synced-prefix cut.
	l.mu.Lock()
	err = l.cur.Append(l.buf)
	l.buf = l.buf[:0]
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	st.Crash()
	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads, _ := collect(t, l2)
	if len(payloads) != 1 || string(payloads[0]) != "durable" {
		t.Fatalf("after crash got %d records %q, want just \"durable\"", len(payloads), payloads)
	}
}

func TestTornTailTruncated(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecCommit, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecCommit, []byte("mangled-record-payload")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st.CorruptTail(10) // flip bytes inside the last record
	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads, _ := collect(t, l2)
	if len(payloads) != 1 || string(payloads[0]) != "good" {
		t.Fatalf("after torn tail got %q, want just \"good\"", payloads)
	}
	// The torn bytes are gone: new appends replay cleanly.
	if _, err := l2.Append(RecCommit, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads, _ = collect(t, l3)
	if len(payloads) != 2 || string(payloads[1]) != "fresh" {
		t.Fatalf("after repair got %q", payloads)
	}
}

func TestSegmentRollAndCheckpointPrune(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(RecPageImage, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 3 {
		t.Fatalf("expected several segments, got %d", l.Segments())
	}
	ck, err := l.Checkpoint([]byte("snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 1 {
		t.Fatalf("checkpoint left %d segments, want 1", l.Segments())
	}
	if _, err := l.Append(RecCommit, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Reopen: replay starts at the checkpoint.
	l2, err := Open(st, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastCheckpointLSN(); got != ck {
		t.Fatalf("recovered checkpoint LSN %d, want %d", got, ck)
	}
	types, payloads, _ := collect(t, l2)
	if len(types) != 2 || types[0] != RecCheckpoint || string(payloads[1]) != "after" {
		t.Fatalf("replay after checkpoint: types %v payloads %q", types, payloads)
	}
}

func TestTruncateToDropsUncommittedTail(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecCommit, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	boundary := l.NextLSN()
	if _, err := l.Append(RecPageImage, []byte("orphan page")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateTo(boundary); err != nil {
		t.Fatal(err)
	}
	if got := l.NextLSN(); got != boundary {
		t.Fatalf("NextLSN after truncate = %d, want %d", got, boundary)
	}
	_, payloads, _ := collect(t, l)
	if len(payloads) != 1 || string(payloads[0]) != "committed" {
		t.Fatalf("after truncate got %q", payloads)
	}
}

// TestSegmentGapKeepsValidPrefixAppendable: when a mid-log segment's
// base LSN no longer chains (inter-segment damage), Open must keep the
// valid prefix, drop the unreachable tail, and reopen the last valid
// segment for appending — not try to re-create an existing file.
func TestSegmentGapKeepsValidPrefixAppendable(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(RecCommit, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(st.segs) < 3 {
		t.Fatalf("want several segments, got %d", len(st.segs))
	}
	// Damage segment 1's base LSN so it no longer chains after seg 0.
	st.segs[1].data[8] ^= 0x7F
	st.segs[1].synced = len(st.segs[1].data)

	l2, err := Open(st, Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("Open over gapped log: %v", err)
	}
	_, payloads, _ := collect(t, l2)
	if len(payloads) == 0 {
		t.Fatal("valid prefix lost")
	}
	// The log is appendable and survives another reopen.
	if _, err := l2.Append(RecCommit, []byte("after-gap")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(st, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads3, _ := collect(t, l3)
	if string(payloads3[len(payloads3)-1]) != "after-gap" {
		t.Fatalf("append after gap lost: %q", payloads3[len(payloads3)-1])
	}
	if len(payloads3) != len(payloads)+1 {
		t.Fatalf("replay count %d, want %d", len(payloads3), len(payloads)+1)
	}
}

func TestDirStorageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(st, Options{SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := l.Append(RecCommit, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Open(st2, Options{SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads, _ := collect(t, l2)
	if len(payloads) != 8 || string(payloads[7]) != "rec-7" {
		t.Fatalf("file-backed replay got %d records", len(payloads))
	}
}

// TestOpenAfterCrashBeforeFirstSync: a fresh log's segment header is
// appended without a sync, so a crash before the first Sync leaves an
// empty segment 0. It holds no acknowledged record; Open must drop it
// and start a fresh log rather than refuse the directory forever.
func TestOpenAfterCrashBeforeFirstSync(t *testing.T) {
	st := NewMemStorage()
	if _, err := Open(st, Options{}); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open after crash before first sync: %v", err)
	}
	if got := l.NextLSN(); got != 0 {
		t.Fatalf("NextLSN = %d, want 0", got)
	}
	if _, err := l.Append(RecCommit, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, payloads, _ := collect(t, l2); len(payloads) != 1 || string(payloads[0]) != "first" {
		t.Fatalf("replay after reopen = %q", payloads)
	}
}

// TestOpenAfterCrashBeforeRolledSegmentSync: a roll syncs the old
// segment and creates the next one, whose header waits for the next
// Sync. A crash in between leaves an empty newest segment; Open drops
// it and appends to the previous one. The same short header on an
// earlier segment is damage, not a torn tail, and stays an error.
func TestOpenAfterCrashBeforeRolledSegmentSync(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	for i := 0; i < 2; i++ {
		if _, err := l.Append(RecCommit, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := l.NextLSN()
	// The third record does not fit: Append rolls to segment 1.
	if _, err := l.Append(RecCommit, payload); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 2 {
		t.Fatalf("segments = %d, want a roll to 2", l.Segments())
	}
	st.Crash()
	l2, err := Open(st, Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("Open after crash before rolled segment's sync: %v", err)
	}
	if got := l2.NextLSN(); got != durable {
		t.Fatalf("NextLSN = %d, want %d", got, durable)
	}
	if _, payloads, _ := collect(t, l2); len(payloads) != 2 {
		t.Fatalf("replayed %d records, want 2", len(payloads))
	}
	if _, err := l2.Append(RecCommit, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(st, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads, _ := collect(t, l3)
	if len(payloads) != 3 || string(payloads[2]) != "after" {
		t.Fatalf("replay after reopen: %d records, last %q", len(payloads), payloads[len(payloads)-1])
	}

	// Empty an earlier segment: that is not a torn tail.
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := st.List()
	if len(seqs) < 2 {
		t.Fatalf("want at least 2 segments, have %v", seqs)
	}
	st.segs[seqs[0]].data = nil
	st.segs[seqs[0]].synced = 0
	if _, err := Open(st, Options{SegmentSize: 256}); err == nil {
		t.Fatal("Open accepted a short header on a non-newest segment")
	}
}
