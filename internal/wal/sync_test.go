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
	if got := l.records.Load(); got != workers*perWorker {
		t.Fatalf("Records = %d, want %d", got, workers*perWorker)
	}
	if l.segmentRolls.Load() == 0 {
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

// dirStorage opens a DirStorage over a fresh directory whose directory
// fsyncs go through hook instead of the filesystem.
func dirStorage(t *testing.T, hook func(dir string) error) *DirStorage {
	t.Helper()
	st, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.syncDir = hook
	return st
}

// appendUntilRoll appends 100-byte records until the log rolls to a new
// segment, returning the error of the append that rolled.
func appendUntilRoll(t *testing.T, l *Log) error {
	t.Helper()
	rolls := l.segmentRolls.Load()
	for i := 0; i < 100; i++ {
		if _, err := l.Append(RecCommit, make([]byte, 100)); err != nil {
			return err
		}
		if l.segmentRolls.Load() != rolls {
			return nil
		}
	}
	t.Fatal("no segment rolled")
	return nil
}

// TestSegmentCreateAndRemoveSyncTheDirectory: a new segment's directory
// entry is durable before the log writes into it, and a pruned one's
// removal before the checkpoint returns — one directory fsync for a
// roll, and one for a checkpoint that prunes one segment.
func TestSegmentCreateAndRemoveSyncTheDirectory(t *testing.T) {
	syncs := 0
	st := dirStorage(t, func(dir string) error {
		syncs++
		return syncDir(dir)
	})
	l, err := Open(st, Options{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if syncs != 1 {
		t.Fatalf("opening an empty log synced the directory %d times, want 1 (segment 0)", syncs)
	}
	syncs = 0
	if err := appendUntilRoll(t, l); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Errorf("a roll synced the directory %d times, want 1", syncs)
	}
	syncs = 0
	if _, err := l.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 1 {
		t.Fatalf("checkpoint left %d segments, want 1", l.Segments())
	}
	if syncs != 1 {
		t.Errorf("a checkpoint pruning one segment synced the directory %d times, want 1", syncs)
	}
}

// TestFailedDirectorySyncFailsTheRoll: a segment whose directory entry
// may not be durable must not take records, so a failed directory fsync
// fails the roll, and the log then refuses appends as after a failed
// segment fsync.
func TestFailedDirectorySyncFailsTheRoll(t *testing.T) {
	fail := false
	st := dirStorage(t, func(dir string) error {
		if fail {
			return errInjectedSync
		}
		return syncDir(dir)
	})
	l, err := Open(st, Options{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := appendUntilRoll(t, l); !errors.Is(err, errInjectedSync) {
		t.Fatalf("roll with a failing directory sync = %v, want the injected failure", err)
	}
	if _, err := l.Append(RecCommit, []byte("more")); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Append after a failed roll = %v, want the stored failure", err)
	}
	if err := l.Sync(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Sync after a failed roll = %v, want the stored failure", err)
	}
	if err := l.Close(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Close after a failed roll = %v, want the stored failure", err)
	}
}
