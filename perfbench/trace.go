package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share a
// trace id; Parent is the index of the enclosing span (−1 for a root).
type span struct {
	Name   string  `json:"name"`
	Trace  int     `json:"trace"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps every span in memory; dump writes them out when the run
// ends. A nil *tracer records nothing, so untraced code paths call it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (−1 on a nil tracer).
func (t *tracer) begin(name string, trace, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(name string, trace, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	t.mu.Unlock()
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its child spans (children may overlap one
// another when a layer runs them concurrently; the union is subtracted).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[i])
	}
	return out
}

// durations returns every finished span's duration in seconds, per name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.closed() {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi float64, ivs [][2]float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, -1.0, -1.0
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// dump writes the spans as JSON under dir (best effort: a failed dump
// loses the span file, not the result).
func (t *tracer) dump(dir, name string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(t.closed())
	if err != nil || os.WriteFile(path, data, 0o644) != nil {
		return ""
	}
	return path
}
