package a

import (
	"blob"
	"engine"
	"pages"
)

type holder struct{ f *pages.Frame }

// good: fetch, use, unpin on every path.
func good(bp *pages.BufferPool) error {
	f, err := bp.Fetch(1)
	if err != nil {
		return err
	}
	_ = f.Data()
	bp.Unpin(f, false)
	return nil
}

// the classic leak: an early return between Fetch and Unpin.
func leakEarlyReturn(bp *pages.BufferPool, bad bool) error {
	f, err := bp.Fetch(1)
	if err != nil {
		return err
	}
	if bad {
		return nil // want `return leaks the BufferPool\.Fetch pin`
	}
	bp.Unpin(f, false)
	return nil
}

// falling off the end of the function while pinned.
func leakFallThrough(bp *pages.BufferPool) {
	f, err := bp.Fetch(1) // want `pin is not released on the fall-through path`
	if err != nil {
		return
	}
	_ = f.Data()
}

// acquiring and dropping the result outright.
func leakDiscard(bp *pages.BufferPool) {
	bp.Fetch(1) // want `result of BufferPool\.Fetch is discarded`
}

func leakBlank(bp *pages.BufferPool) error {
	_, err := bp.NewPage() // want `result of BufferPool\.NewPage assigned to _`
	return err
}

// re-fetching into the same variable while the old pin is live.
func leakOverwrite(bp *pages.BufferPool) {
	f, err := bp.Fetch(1)
	if err != nil {
		return
	}
	f, err = bp.Fetch(2) // want `pin from line \d+ is overwritten while still held`
	if err != nil {
		return
	}
	bp.Unpin(f, false)
}

// escape: ownership moves to the caller inside a composite literal.
func escapeStruct(bp *pages.BufferPool) (*holder, error) {
	f, err := bp.Fetch(1)
	if err != nil {
		return nil, err
	}
	return &holder{f: f}, nil
}

// escape: the deferred unpin covers every exit.
func escapeDefer(bp *pages.BufferPool, n int) error {
	f, err := bp.Fetch(1)
	if err != nil {
		return err
	}
	defer bp.Unpin(f, false)
	if n > 0 {
		return nil
	}
	_ = f.Data()
	return nil
}

// escape: a helper takes the frame; responsibility transfers with it.
func escapeHelper(bp *pages.BufferPool) error {
	f, err := bp.Fetch(1)
	if err != nil {
		return err
	}
	consume(f)
	return nil
}

func consume(f *pages.Frame) {}

// the iterator rotation: unpin the old frame, fetch the next one, with
// the loop owning the live pin across iterations.
func rotate(bp *pages.BufferPool, n int) error {
	f, err := bp.Fetch(1)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		bp.Unpin(f, false)
		f, err = bp.Fetch(pages.PageID(i))
		if err != nil {
			return err
		}
	}
	bp.Unpin(f, false)
	return nil
}

// regression: reading a field through the blank identifier is a use,
// not an alias — the leak must still be reported. (A real miss: the
// repo's acceptance scratch `_ = f.Page; return nil` sailed through
// the first implementation because `_ = ...` was treated as an
// aliasing assignment and exempted the acquisition.)
func leakBlankFieldRead(bp *pages.BufferPool) error {
	f, err := bp.Fetch(3)
	if err != nil {
		return err
	}
	_ = f.ID
	return nil // want `return leaks the BufferPool\.Fetch pin`
}

// a documented intentional hold is silenced by the allow comment.
func suppressed(bp *pages.BufferPool) {
	f, _ := bp.Fetch(1) //lint:allow pinleak frame is intentionally held for the pool's lifetime in this fixture
	_ = f.Data()
}

// a snapshot fetch pins exactly like a pool fetch.
func leakSnapshotFetch(sn *pages.Snapshot, bad bool) error {
	f, err := sn.Fetch(1)
	if err != nil {
		return err
	}
	if bad {
		return nil // want `return leaks the Snapshot\.Fetch pin`
	}
	sn.Unpin(f, false)
	return nil
}

// a fetch through the Fetcher interface — how every B+tree descent and
// blob read reaches the pool — pins exactly like a concrete one.
type tree struct {
	fx pages.Fetcher
	bp *pages.BufferPool
}

func (t *tree) goodFetcherFetch() error {
	f, err := t.fx.Fetch(1)
	if err != nil {
		return err
	}
	_ = f.Data()
	t.fx.Unpin(f, false)
	return nil
}

func (t *tree) leakFetcherFetch(bad bool) error {
	f, err := t.fx.Fetch(1)
	if err != nil {
		return err
	}
	if bad {
		return nil // want `return leaks the Fetcher\.Fetch pin`
	}
	t.fx.Unpin(f, false)
	return nil
}

func (t *tree) suppressedFetcherFetch() {
	f, _ := t.fx.Fetch(1) //lint:allow pinleak fixture: the frame is deliberately held
	_ = f.Data()
}

// the write-side fetch pins the session's pending copy.
func (t *tree) goodFetchForWrite() error {
	f, err := t.bp.FetchForWrite(1)
	if err != nil {
		return err
	}
	_ = f.Data()
	t.bp.Unpin(f, true)
	return nil
}

func (t *tree) leakFetchForWrite(bad bool) error {
	f, err := t.bp.FetchForWrite(1)
	if err != nil {
		return err
	}
	if bad {
		return nil // want `return leaks the BufferPool\.FetchForWrite pin`
	}
	t.bp.Unpin(f, true)
	return nil
}

func (t *tree) suppressedFetchForWrite() {
	f, _ := t.bp.FetchForWrite(1) //lint:allow pinleak fixture: the frame is deliberately held
	_ = f.Data()
}

// blob reads are callbacks and keep no pin: nothing to release.
func goodVisit(s *blob.Store, ref blob.Ref) error {
	return s.VisitRuns(ref, func([]byte) {})
}

// snapshot cursors pin a leaf until Close.
func leakCursor(t *engine.Table, s *engine.Snapshot) error {
	cur, err := t.CursorRangeAt(s, 0, 9)
	if err != nil {
		return err
	}
	if !cur.Next() {
		return nil // want `return leaks the Table\.CursorRangeAt pin`
	}
	cur.Close()
	return nil
}

func goodCursor(t *engine.Table, s *engine.Snapshot) error {
	cur, err := t.CursorRangeAt(s, 0, 9)
	if err != nil {
		return err
	}
	defer cur.Close()
	for cur.Next() {
	}
	return nil
}
