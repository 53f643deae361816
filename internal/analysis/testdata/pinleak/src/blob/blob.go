// Package blob mocks the one blob read that returns a pinned value.
package blob

type Ref struct{}

type View struct{}

func (v *View) Contiguous() ([]byte, bool) { return nil, false }
func (v *View) Release()                   {}

type Store struct{}

func (s *Store) View(ref Ref) (*View, error) { return &View{}, nil }

// VisitRuns pins nothing past its return: not an acquisition.
func (s *Store) VisitRuns(ref Ref, fn func(seg []byte)) error { return nil }
