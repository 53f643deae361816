package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call. The benchmark records spans from outside the
// engine: one per top-level op (layer "bench") and one around every
// call the op makes into a layer's public functions. Spans of one op
// share Request.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a top-level op
	Request int    `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since the trace began
	End     int64  `json:"end"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, which is how end-to-end runs
// keep tracing off. It serves one client: open spans form a stack.
type tracer struct {
	t0      time.Time
	spans   []span
	open    []int
	request int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// span opens a span and returns the function that closes it:
//
//	defer tr.span("blob", "BlobSubarray")()
func (t *tracer) span(layer, name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.request++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: t.request, Layer: layer, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns each layer's self time: span durations minus the
// part their child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Layer] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
