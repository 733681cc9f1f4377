package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a call the bench makes into the
// system. Spans of one job (or request) share a trace id; Parent is 0 for
// a root span. Counters carry the numbers the call returned.
type span struct {
	Trace    string             `json:"trace"`
	ID       int                `json:"span"`
	Parent   int                `json:"parent,omitempty"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	SelfNS   int64              `json:"self_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so untraced runs pay one nil check
// per call site.
type tracer struct {
	t0     time.Time
	prefix string // makes trace ids unique across the runs of one file
	mu     sync.Mutex
	spans  []span
}

func newTracer(prefix string) *tracer { return &tracer{t0: time.Now(), prefix: prefix} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(trace string, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: t.prefix + trace, ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: now, EndNS: -1})
	return len(t.spans)
}

// end closes span id and attaches its counters.
func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].Counters = counters
}

// finish returns the spans with self time filled in: a span's duration
// minus the part of it that its children cover.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	children := make(map[int][]int)
	for i, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range out {
		s := &out[i]
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(out[c].StartNS, s.StartNS), min(out[c].EndNS, s.EndNS)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered(iv)
	}
	return out
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, k int) bool { return iv[i][0] < iv[k][0] })
	var total, lo, hi int64
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
			continue
		}
		hi = max(hi, v[1])
	}
	return total + hi - lo
}

// appendSpans appends the spans to path as JSONL.
func appendSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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
