package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Handler exposes a registry over HTTP — the monitoring plane a
// long-running server (sqlsh .serve-metrics today, sqlarrayd later)
// mounts:
//
//	/metrics      Prometheus text exposition format
//	/debug/vars   expvar-compatible JSON object
//	/             a plain-text index of the two
//
// The handler is read-only and safe for concurrent use.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		r.WriteJSON(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "sqlarray metrics")
		fmt.Fprintln(w, "  /metrics      Prometheus text format")
		fmt.Fprintln(w, "  /debug/vars   expvar-style JSON")
	})
	return mux
}

// PromName maps a registry name to its Prometheus series name:
// "pages.logical_reads" becomes "sqlarray_pages_logical_reads", with
// counters additionally suffixed "_total" by the exporter.
func PromName(name string) string {
	return "sqlarray_" + strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// WritePrometheus writes every metric in the text exposition format.
// Counters and funcs export as counters ("_total"), gauges as gauges,
// histograms as native histograms with cumulative "le" buckets and
// seconds units.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.names() {
		e := r.entries[name]
		switch e.kind {
		case kindCounter, kindFunc:
			pn := PromName(name) + "_total"
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, e.value())
		case kindGauge:
			var g int64
			for _, gg := range e.gauges {
				g += gg.Load()
			}
			pn := PromName(name)
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, g)
		case kindHistogram:
			h := e.histSnapshot()
			pn := PromName(name) + "_seconds"
			fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
			var cum uint64
			for i, n := range h.Buckets {
				cum += n
				if b := bucketBound(i); b >= 0 {
					fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", pn, b.Seconds(), cum)
				} else {
					fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
				}
			}
			fmt.Fprintf(w, "%s_sum %g\n", pn, float64(h.SumNS)/1e9)
			fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
		}
	}
}

// WriteJSON writes every metric as one JSON object keyed by registered
// name (expvar-style). Scalars are numbers; histograms are objects
// with count, sum_ns and the per-bucket counts.
func (r *Registry) WriteJSON(w io.Writer) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.entries))
	for name, e := range r.entries {
		if e.kind == kindHistogram {
			h := e.histSnapshot()
			buckets := make(map[string]uint64, len(h.Buckets))
			for i, n := range h.Buckets {
				if n == 0 {
					continue
				}
				if b := bucketBound(i); b >= 0 {
					buckets[b.String()] = n
				} else {
					buckets["+Inf"] = n
				}
			}
			out[name] = map[string]any{
				"count":   h.Count,
				"sum_ns":  h.SumNS,
				"buckets": buckets,
			}
			continue
		}
		if e.kind == kindGauge {
			var g int64
			for _, gg := range e.gauges {
				g += gg.Load()
			}
			out[name] = g
			continue
		}
		out[name] = e.value()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
