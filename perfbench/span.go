package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public entry point. Name is "<layer>.<call>"; Op groups the spans
// of one logical operation (a job, a dataset replay, an HTTP request chain).
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for none
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced code paths call it unconditionally.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children's
// parent; -1 on a nil recorder.
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (the scheduler's
// own job timestamps) and returns its index.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return len(r.spans) - 1
}

// snapshot returns the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// calls under one parent) count their covered time once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.Parent != i {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var cur iv
		for k, v := range ivs {
			switch {
			case k == 0:
				cur = v
			case v.a <= cur.b:
				cur.b = max(cur.b, v.b)
			default:
				covered += cur.b - cur.a
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b - cur.a
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// writeSpans writes spans as JSON lines, each with its self time.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i, s := range spans {
		rec := struct {
			span
			Self time.Duration `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
