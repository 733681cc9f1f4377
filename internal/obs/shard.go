package obs

import (
	"math/bits"
	"time"
)

// HistShard is a single-goroutine histogram accumulator: the same
// exponential-bucket layout as Histogram, but plain int64 fields instead of
// atomics. A worker observes into its private shard with no synchronization
// at all and drains it into the shared (atomic) histograms at batch
// boundaries, so a metered hot loop costs a few local integer writes per
// observation instead of cross-core atomic traffic.
//
// The zero value is ready to use.
type HistShard struct {
	count   int64
	sum     int64 // nanoseconds
	min     int64 // nanoseconds + 1, so the zero value means "unset"
	max     int64
	buckets [histBuckets]int64
}

// Observe records one duration. Negative durations are clamped to zero,
// mirroring Histogram.Observe.
func (s *HistShard) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s.count++
	s.sum += ns
	if s.min == 0 || ns+1 < s.min {
		s.min = ns + 1
	}
	if ns > s.max {
		s.max = ns
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	s.buckets[b]++
}

// Reset clears the shard without draining it.
func (s *HistShard) Reset() { *s = HistShard{} }

// merge folds a drained shard into the histogram. Equivalent to replaying
// every observation through Observe, but with one pass over the buckets.
func (h *Histogram) merge(s *HistShard) {
	if s.count == 0 {
		return
	}
	h.count.Add(s.count)
	h.sum.Add(s.sum)
	for {
		old := h.min.Load()
		if old != 0 && old <= s.min {
			break
		}
		if h.min.CompareAndSwap(old, s.min) {
			break
		}
	}
	for {
		old := h.max.Load()
		if s.max <= old {
			break
		}
		if h.max.CompareAndSwap(old, s.max) {
			break
		}
	}
	for i := range s.buckets {
		if s.buckets[i] != 0 {
			h.buckets[i].Add(s.buckets[i])
		}
	}
}
