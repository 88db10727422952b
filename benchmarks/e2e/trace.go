package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded span: a call the benchmark made into a layer
// (or a benchmark phase that contains such calls). Times are nanoseconds
// since the tracer started; Parent indexes the span that caused this one
// (-1 for a root); Op numbers the request the span belongs to (0 for
// set-up and probe spans).
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin returns noSpan and end does nothing, so call sites
// are unconditional and the untraced path pays one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

const noSpan int32 = -1

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	// Stamped after the lock is held so waiting for it is not billed to
	// the span.
	t.spans = append(t.spans, spanRec{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanTotals is the per-name roll-up of a trace.
type spanTotals struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is total time minus the time covered by child spans: what
	// the layer itself spent, as opposed to what it waited for below.
	SelfMS float64 `json:"self_ms"`
}

func (t *tracer) totals() map[string]spanTotals {
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanTotals{}
	for i, s := range t.spans {
		d := s.End - s.Start
		self := d - childNS[i]
		if self < 0 { // concurrent children can cover more than the parent's wall time
			self = 0
		}
		a := out[s.Name]
		a.Count++
		a.TotalMS += float64(d) / 1e6
		a.SelfMS += float64(self) / 1e6
		out[s.Name] = a
	}
	return out
}

// traceFileSpans bounds the raw spans written out; the roll-up always
// covers every span. A served_read run records over 10^5 op spans, and
// the first few thousand show the shape as well as all of them.
const traceFileSpans = 20000

// write stores the trace as JSON under dir and prints the roll-up.
func (t *tracer) write(dir, workload string, seed uint64, out io.Writer) error {
	tot := t.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "\nspans (%d recorded):\n  %-28s %8s %12s %12s\n", len(t.spans), "name", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := tot[n]
		fmt.Fprintf(out, "  %-28s %8d %12.3f %12.3f\n", n, a.Count, a.TotalMS, a.SelfMS)
	}
	raw := t.spans
	if len(raw) > traceFileSpans {
		raw = raw[:traceFileSpans]
	}
	doc := struct {
		Workload string                `json:"workload"`
		Seed     uint64                `json:"seed"`
		Spans    int                   `json:"spans_recorded"`
		ByName   map[string]spanTotals `json:"by_name"`
		Raw      []spanRec             `json:"spans"`
	}{workload, seed, len(t.spans), tot, raw}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), append(b, '\n'), 0o644)
}
