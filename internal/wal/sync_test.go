package wal

import (
	"errors"
	"sync"
	"testing"
)

var errInjectedSync = errors.New("injected segment fsync failure")

// failSyncStorage wraps MemStorage so a test can make the next segment
// fsync fail. The failed fsync leaves the segment's synced prefix where
// it was, so Crash drops every byte it should have made durable.
type failSyncStorage struct {
	*MemStorage
	mu       sync.Mutex
	failNext bool
}

func (f *failSyncStorage) Open(seq uint32) (Segment, error) {
	s, err := f.MemStorage.Open(seq)
	if err != nil {
		return nil, err
	}
	return &failSyncSegment{Segment: s, st: f}, nil
}

func (f *failSyncStorage) Create(seq uint32) (Segment, error) {
	s, err := f.MemStorage.Create(seq)
	if err != nil {
		return nil, err
	}
	return &failSyncSegment{Segment: s, st: f}, nil
}

// failNextSync makes the next segment fsync fail; later ones succeed.
func (f *failSyncStorage) failNextSync() {
	f.mu.Lock()
	f.failNext = true
	f.mu.Unlock()
}

type failSyncSegment struct {
	Segment
	st *failSyncStorage
}

func (s *failSyncSegment) Sync() error {
	s.st.mu.Lock()
	fail := s.st.failNext
	s.st.failNext = false
	s.st.mu.Unlock()
	if fail {
		return errInjectedSync
	}
	return s.Segment.Sync()
}

// TestFailedSyncIsFinal fails one segment fsync and checks that the log
// never recovers by itself: the storage would accept a second fsync, but
// a Sync after the failure returns the stored error, DurableLSN stays
// where it was, and Append and Checkpoint refuse. Reopening recovers
// exactly the records made durable before the failure.
func TestFailedSyncIsFinal(t *testing.T) {
	st := &failSyncStorage{MemStorage: NewMemStorage()}
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

	if _, err := l.Append(RecCommit, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	st.failNextSync()
	if err := l.Sync(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("first Sync = %v, want the injected failure", err)
	}
	if err := l.Sync(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Sync after a failed fsync = %v, want the stored failure", err)
	}
	if got := l.DurableLSN(); got != durable {
		t.Fatalf("DurableLSN moved %d -> %d past a failed fsync", durable, got)
	}
	if _, err := l.Append(RecCommit, []byte("more")); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Append on a failed log = %v, want the stored failure", err)
	}
	if _, err := l.Checkpoint(nil); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Checkpoint on a failed log = %v, want the stored failure", err)
	}
	if got := l.DurableLSN(); got != durable {
		t.Fatalf("DurableLSN moved %d -> %d on a failed log", durable, got)
	}
	if err := l.Close(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Close on a failed log = %v, want the stored failure", err)
	}

	st.Crash()
	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	_, payloads, _ := collect(t, l2)
	if len(payloads) != 1 || string(payloads[0]) != "durable" {
		t.Fatalf("reopened log holds %q, want only the record synced before the failure", payloads)
	}
	if _, err := l2.Append(RecCommit, []byte("again")); err != nil {
		t.Fatalf("reopened log refuses appends: %v", err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatalf("reopened log refuses Sync: %v", err)
	}
}

// TestCallerErrorsDoNotFailTheLog: an oversized record and a closed log
// are the caller's errors, not the storage's; neither fails the log.
func TestCallerErrorsDoNotFailTheLog(t *testing.T) {
	l, err := Open(NewMemStorage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecPageImage, make([]byte, maxRecordSize+1)); !errors.Is(err, errTooLarge) {
		t.Fatalf("oversized Append = %v, want errTooLarge", err)
	}
	if _, err := l.Append(RecCommit, []byte("ok")); err != nil {
		t.Fatalf("Append after errTooLarge: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after errTooLarge: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, errClosed) {
		t.Fatalf("Sync on a closed log = %v, want errClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestConcurrentAppendSyncRollStress hammers Append+Sync from many
// goroutines over small segments, so appends roll segments while other
// callers sync; run it under -race. Every committer must see its own
// records durable when its Sync returns, and a reopen must replay all
// of them.
func TestConcurrentAppendSyncRollStress(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{SegmentSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	payload := make([]byte, 256)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lsn, err := l.Append(RecCommit, payload)
				if err != nil {
					errs <- err
					return
				}
				if err := l.Sync(); err != nil {
					errs <- err
					return
				}
				if end := uint64(lsn + FrameSize(len(payload))); l.DurableLSN() < end {
					errs <- errors.New("Sync returned before the caller's record was durable")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.Records != workers*perWorker {
		t.Fatalf("Records = %d, want %d", s.Records, workers*perWorker)
	}
	if s.SegmentRolls == 0 {
		t.Fatal("no segment rolled; the stress never exercised a roll")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(st, Options{SegmentSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if types, _, _ := collect(t, l2); len(types) != workers*perWorker {
		t.Fatalf("reopen replays %d records, want %d", len(types), workers*perWorker)
	}
}
