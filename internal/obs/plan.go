package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// PlanNode is one operator in a rendered query plan. The executor
// (sqlmini) builds a tree of these alongside the operator pipeline;
// EXPLAIN renders the bare tree, EXPLAIN ANALYZE and the slow-query
// log render it with the runtime annotations filled in.
//
// Runtime metrics are inclusive of the node's children, matching the
// usual EXPLAIN ANALYZE convention: a Filter's Pages count includes
// the pages its Scan child read, and the root node's totals equal the
// whole query's buffer-pool delta.
type PlanNode struct {
	Name     string      `json:"name"`             // operator, e.g. "Scan", "Filter", "Gather"
	Detail   string      `json:"detail,omitempty"` // e.g. `range scan keys [10, 99]`
	Children []*PlanNode `json:"children,omitempty"`

	// Filled in by EXPLAIN ANALYZE / slow-query instrumentation.
	Analyzed bool          `json:"analyzed,omitempty"`
	Rows     int64         `json:"rows,omitempty"`    // rows emitted by this node
	Batches  int64         `json:"batches,omitempty"` // nextBatch / next calls that produced rows
	Time     time.Duration `json:"time_ns,omitempty"` // wall time inside this subtree
	Pages    uint64        `json:"pages,omitempty"`   // logical page reads in this subtree
	Chunks   uint64        `json:"chunks,omitempty"`  // blob chunk reads in this subtree

	// Extra holds operator-specific annotations (workers=4,
	// partitions pruned, …) rendered after the built-in metrics, in
	// order.
	Extra []Metric `json:"extra,omitempty"`
}

// Metric is one named annotation on a plan node.
type Metric struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// AddExtra appends a formatted annotation.
func (n *PlanNode) AddExtra(name, format string, args ...any) {
	n.Extra = append(n.Extra, Metric{Name: name, Value: fmt.Sprintf(format, args...)})
}

// Render returns the tree in the indented text form EXPLAIN prints,
// one operator per line, children indented under their parent.
func (n *PlanNode) Render() string {
	var b strings.Builder
	n.render(&b, "", true)
	return strings.TrimRight(b.String(), "\n")
}

func (n *PlanNode) render(b *strings.Builder, prefix string, root bool) {
	head := prefix
	childPrefix := prefix
	if !root {
		head += "-> "
		childPrefix += "   "
	}
	b.WriteString(head)
	b.WriteString(n.Name)
	if n.Detail != "" {
		b.WriteString(" ")
		b.WriteString(n.Detail)
	}
	b.WriteString("\n")
	if n.Analyzed {
		b.WriteString(childPrefix)
		fmt.Fprintf(b, "   (actual rows=%d batches=%d time=%s pages=%d chunks=%d",
			n.Rows, n.Batches, n.Time.Round(time.Microsecond), n.Pages, n.Chunks)
		for _, m := range n.Extra {
			fmt.Fprintf(b, " %s=%s", m.Name, m.Value)
		}
		b.WriteString(")\n")
	} else if len(n.Extra) > 0 {
		b.WriteString(childPrefix)
		b.WriteString("   (")
		for i, m := range n.Extra {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(b, "%s=%s", m.Name, m.Value)
		}
		b.WriteString(")\n")
	}
	for _, c := range n.Children {
		c.render(b, childPrefix, false)
	}
}

// Walk visits the node and all descendants in depth-first order.
func (n *PlanNode) Walk(fn func(*PlanNode)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// QueryTrace is the per-query trace context threaded through
// sqlmini.ExecOptions. Point a zero-valued trace at a query (set
// opts.Trace = &t) and after the query's Rows are closed it holds the
// annotated plan, the wall time, and the registry counter deltas the
// query caused. EXPLAIN ANALYZE and the slow-query log are both thin
// renderings of a QueryTrace.
type QueryTrace struct {
	SQL      string        // statement text, when the caller had it
	Start    time.Time     // set by the executor at open
	Duration time.Duration // set when the query's Rows close
	Plan     *PlanNode     // annotated operator tree
	Delta    Snapshot      // registry deltas over the query (nil without a registry)
}

// SlowLogEntry is the JSON shape of one slow-query log line.
type SlowLogEntry struct {
	SQL        string    `json:"sql"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Pages      uint64    `json:"pages_read"`
	Chunks     uint64    `json:"blob_chunk_reads"`
	WALRecords uint64    `json:"wal_records"`
	Plan       *PlanNode `json:"plan,omitempty"`
}

// SlowLog is a structured slow-query log: one JSON object per line,
// safe for concurrent use. Attach one to ExecOptions.SlowLog; every
// query whose wall time reaches the log's threshold emits its
// ANALYZE-style trace here.
type SlowLog struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer
}

// NewSlowLog creates a slow-query log writing JSON lines to w for every
// query that takes threshold or longer.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	return &SlowLog{threshold: threshold, w: w}
}

// Log emits one trace as a JSON line if the query took the threshold or
// longer. Rendering happens outside the lock; only the write is
// serialized.
func (l *SlowLog) Log(t *QueryTrace) {
	if t.Duration < l.threshold {
		return
	}
	e := SlowLogEntry{
		SQL:        t.SQL,
		Start:      t.Start,
		DurationMS: float64(t.Duration) / float64(time.Millisecond),
		Pages:      t.Delta.Get("pages.logical_reads"),
		Chunks:     t.Delta.Get("blob.chunk_reads"),
		WALRecords: t.Delta.Get("wal.records"),
		Plan:       t.Plan,
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(line)
}
