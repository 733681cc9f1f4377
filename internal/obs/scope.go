package obs

import (
	"context"
	"time"
)

// Scope is a write fan-out over one or more registries: every counter
// increment, gauge update, histogram observation, and span recorded through
// a Scope lands in all of them. It is the per-job observability carrier of
// the service layer — a job's scope typically spans the job's own registry
// (served back on GET /jobs/{id}) and the process-global registry (served
// on GET /metrics), so the same instrumented code answers both "what is
// this job doing" and "what is this server doing" without double
// bookkeeping at call sites.
//
// A nil *Scope is a valid no-op sink: every method returns an empty (nil)
// handle whose operations do nothing, so instrumented code needs no nil
// checks. Scopes are immutable after construction and safe for concurrent
// use.
type Scope struct {
	regs []*Registry
}

// NewScope builds a scope over the given registries. Nil registries are
// dropped and duplicates are written only once.
func NewScope(regs ...*Registry) *Scope {
	return (*Scope)(nil).With(regs...)
}

// With returns a new scope writing to s's registries plus the given ones
// (nils dropped, duplicates kept once). Works on a nil receiver, so
// chaining from an absent parent scope is safe.
func (s *Scope) With(regs ...*Registry) *Scope {
	out := &Scope{}
	if s != nil {
		out.regs = append(out.regs, s.regs...)
	}
	for _, r := range regs {
		if r == nil {
			continue
		}
		dup := false
		for _, have := range out.regs {
			if have == r {
				dup = true
				break
			}
		}
		if !dup {
			out.regs = append(out.regs, r)
		}
	}
	return out
}

// Registries returns the scope's registries in write order (nil-safe).
func (s *Scope) Registries() []*Registry {
	if s == nil {
		return nil
	}
	return s.regs
}

// Empty reports whether the scope writes nowhere.
func (s *Scope) Empty() bool { return s == nil || len(s.regs) == 0 }

// CounterSet is the multi-registry handle for one named counter. The zero
// (nil) value is a no-op.
type CounterSet []*Counter

// Add increments every underlying counter by n.
func (cs CounterSet) Add(n int64) {
	for _, c := range cs {
		c.Add(n)
	}
}

// Inc increments every underlying counter by one.
func (cs CounterSet) Inc() { cs.Add(1) }

// Counter returns the named counter in every registry of the scope,
// creating them on first use. Returns nil (a no-op set) on an empty scope.
func (s *Scope) Counter(name string) CounterSet {
	if s.Empty() {
		return nil
	}
	cs := make(CounterSet, len(s.regs))
	for i, r := range s.regs {
		cs[i] = r.Counter(name)
	}
	return cs
}

// GaugeSet is the multi-registry handle for one named gauge. The zero
// (nil) value is a no-op.
type GaugeSet []*Gauge

// Set stores n in every underlying gauge.
func (gs GaugeSet) Set(n int64) {
	for _, g := range gs {
		g.Set(n)
	}
}

// Gauge returns the named gauge in every registry of the scope.
func (s *Scope) Gauge(name string) GaugeSet {
	if s.Empty() {
		return nil
	}
	gs := make(GaugeSet, len(s.regs))
	for i, r := range s.regs {
		gs[i] = r.Gauge(name)
	}
	return gs
}

// HistogramSet is the multi-registry handle for one named histogram. The
// zero (nil) value is a no-op.
type HistogramSet []*Histogram

// Observe records d into every underlying histogram.
func (hs HistogramSet) Observe(d time.Duration) {
	for _, h := range hs {
		h.Observe(d)
	}
}

// Drain folds a locally accumulated shard into every underlying histogram
// and resets the shard. One batched merge per histogram instead of per-call
// atomic fan-out; a no-op on an empty shard or a nil set.
func (hs HistogramSet) Drain(s *HistShard) {
	if s == nil || s.count == 0 {
		return
	}
	for _, h := range hs {
		h.merge(s)
	}
	s.Reset()
}

// Histogram returns the named histogram in every registry of the scope.
func (s *Scope) Histogram(name string) HistogramSet {
	if s.Empty() {
		return nil
	}
	hs := make(HistogramSet, len(s.regs))
	for i, r := range s.regs {
		hs[i] = r.Histogram(name)
	}
	return hs
}

// MultiTimer is a span started on every registry of a scope: ending it
// records the duration into each registry's histogram (and each attached
// tracer sees its own span_begin/span_end pair with that registry's ids).
type MultiTimer struct {
	timers []*Timer
}

// Span starts a root span on every registry of the scope. On an empty
// scope the returned timer is a no-op.
func (s *Scope) Span(name string) *MultiTimer {
	m := &MultiTimer{}
	if s != nil {
		m.timers = make([]*Timer, len(s.regs))
		for i, r := range s.regs {
			m.timers[i] = r.Span(name)
		}
	}
	return m
}

// Child starts a nested span under every timer of m.
func (m *MultiTimer) Child(name string) *MultiTimer {
	c := &MultiTimer{timers: make([]*Timer, len(m.timers))}
	for i, t := range m.timers {
		c.timers[i] = t.Child(name)
	}
	return c
}

// End stops every timer and returns the first one's duration (zero on a
// no-op timer).
func (m *MultiTimer) End() time.Duration {
	var d time.Duration
	for i, t := range m.timers {
		if i == 0 {
			d = t.End()
		} else {
			t.End()
		}
	}
	return d
}

// scopeKey carries a *Scope on a context.Context.
type scopeKey struct{}

// WithScope returns a context carrying s, the per-job observability scope
// the service layer threads from its HTTP handlers through the scheduler
// into the synthesis pipeline.
func WithScope(ctx context.Context, s *Scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, s)
}

// ScopeFrom extracts the scope carried by ctx, or nil when absent. The nil
// result is safe to use directly (all methods are nil-tolerant) and to
// extend with With.
func ScopeFrom(ctx context.Context) *Scope {
	s, _ := ctx.Value(scopeKey{}).(*Scope)
	return s
}
