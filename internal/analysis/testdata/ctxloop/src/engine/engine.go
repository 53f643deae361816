// Package engine mocks the cursor surface the executor drains.
package engine

type Vector struct{}

type Cursor struct{}

func (c *Cursor) Next() bool { return false }
func (c *Cursor) FillBatch(keys []int64, cols []*Vector) (int, error) {
	return 0, nil
}
func (c *Cursor) Key() int64 { return 0 }
func (c *Cursor) Close()     {}
