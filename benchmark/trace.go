package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer started; Parent indexes the causing span
// (-1 for a root); spans of one request share Req (0 = not a request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// so the untraced pass runs the same code without the clock reads.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.base).Nanoseconds(), End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.base).Nanoseconds()
}

// do times f as a child of parent and returns the span's index.
func (t *tracer) do(name string, parent int, f func()) int {
	i := t.begin(name, parent, 0)
	f()
	t.end(i)
	return i
}

// seconds returns the duration of span i (0 on a nil tracer).
func (t *tracer) seconds(i int) float64 {
	if t == nil || i < 0 {
		return 0
	}
	return float64(t.spans[i].End-t.spans[i].Start) / 1e9
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime sums one span name's calls: how often, how long in total, and how
// much of that was the layer itself rather than the spans it caused.
type layerTime struct {
	Count int
	Total int64
	Self  int64
}

// selfTimes computes, per span name, total duration and self time: a span's
// duration minus the part of its interval that its direct children cover
// (overlapping children are counted once). Unfinished spans are skipped.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.End >= s.Start && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		dur := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered(children[i], s.Start, s.End)
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	at := lo
	for _, x := range iv {
		s, e := max(x[0], at), min(x[1], hi)
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}
