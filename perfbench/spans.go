package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// ID of the span that caused it (0 for a root); spans of one request or
// pass share their root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: begin returns a no-op and records nothing, so the
// measured code path is the same in both modes.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID and the function
// that closes it. Safe for concurrent use.
func (t *tracer) begin(parent int, name string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.mu.Unlock()
	return id, func() {
		end := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// finish computes every span's self time — its duration minus the part
// of its interval that its children cover — and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := append([]span(nil), t.spans...)
	for i := range out {
		out[i].Self = (out[i].End - out[i].Start) - covered(out[i], children[out[i].ID])
	}
	return out
}

// covered returns how much of p's interval the union of kids spans.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
			continue
		}
		hi = max(hi, e)
	}
	return total + hi - lo
}

// selfByName sums self time and counts spans per name.
func selfByName(spans []span) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.SelfMs += float64(s.Self) / 1e6
		t.TotalMs += float64(s.End-s.Start) / 1e6
		out[s.Name] = t
	}
	return out
}

type spanTotal struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// durationsMs returns the durations of the spans named name, in ms.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
