package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Times are nanoseconds since the tracer's epoch. rid is the
// request id: the closed-loop query a span serves (0 outside queries).
type span struct {
	name       string
	op         string
	id, parent int64
	rid        int64
	start, end int64
	// inner is time the span spent inside a callee that has no span of
	// its own (the wire writer a streamed scan hands records to).
	inner int64
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerTime is one span name's totals: calls, wall time, self time
// (wall time minus the part of it that child spans cover, minus inner
// time) and inner time.
type layerTime struct {
	Calls  int64   `json:"calls"`
	WallS  float64 `json:"wall_s"`
	SelfS  float64 `json:"self_s"`
	InnerS float64 `json:"inner_s,omitempty"`
}

// layers folds the spans into per-name totals. A span's self time is
// its duration minus the union of its children's intervals clipped to
// it, minus its untraced inner time.
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]int, len(t.spans)/4)
	for i := range t.spans {
		if p := t.spans[i].parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make(map[string]*layerTime)
	for i := range t.spans {
		s := &t.spans[i]
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		self := s.dur() - s.inner - t.cover(s, children[s.id])
		lt.Calls++
		lt.WallS += float64(s.dur()) / 1e9
		lt.SelfS += float64(self) / 1e9
		lt.InnerS += float64(s.inner) / 1e9
	}
	return out
}

// cover returns how much of parent's interval the given child spans
// cover, counting overlapping children once.
func (t *tracer) cover(parent *span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := &t.spans[k]
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// uncovered returns the total duration of spans named name, and the
// part of it that no span named by of with the same request id covers.
func (t *tracer) uncovered(name, by string) (wall, rest float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byRID := make(map[int64][]int)
	for i := range t.spans {
		if s := &t.spans[i]; s.name == by {
			byRID[s.rid] = append(byRID[s.rid], i)
		}
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name {
			wall += float64(s.dur()) / 1e9
			rest += float64(s.dur()-t.cover(s, byRID[s.rid])) / 1e9
		}
	}
	return wall, rest
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// count returns how many spans are held.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// sumWhere totals span durations and counts over spans matching keep.
func (t *tracer) sumWhere(keep func(*span) bool) (n int64, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if keep(&t.spans[i]) {
			n++
			ns += t.spans[i].dur()
		}
	}
	return n, ns
}

// maxSpansWritten caps the span file; the ledger's totals always cover
// every span.
const maxSpansWritten = 200_000

// writeSpans writes the spans as JSON lines, at most maxSpansWritten of
// them, and returns how many it left out.
func (t *tracer) writeSpans(path string) (omitted int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	t.mu.Lock()
	n := len(t.spans)
	if n > maxSpansWritten {
		omitted = n - maxSpansWritten
		n = maxSpansWritten
	}
	enc := json.NewEncoder(w)
	for i := 0; i < n && err == nil; i++ {
		s := &t.spans[i]
		err = enc.Encode(struct {
			Name   string `json:"name"`
			Op     string `json:"op,omitempty"`
			ID     int64  `json:"id"`
			Parent int64  `json:"parent"`
			RID    int64  `json:"rid"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Inner  int64  `json:"inner_ns,omitempty"`
		}{s.name, s.op, s.id, s.parent, s.rid, s.start, s.end, s.inner})
	}
	t.mu.Unlock()
	if err != nil {
		return omitted, fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		return omitted, fmt.Errorf("write spans: %w", err)
	}
	return omitted, f.Close()
}
