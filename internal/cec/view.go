package cec

import (
	"context"

	"github.com/reversible-eda/rcgp/internal/bits"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// View is a single-goroutine snapshot of a Spec's stimulus tables plus a
// local statistics shard. It is the per-worker handle of the parallel
// search engine: Check runs the whole simulation screen without touching
// the spec's locks, and the oracle counters accumulate locally until Flush
// merges them — so concurrent evaluation workers share no mutable state on
// the per-candidate hot path at all.
//
// The snapshot protocol is safe against concurrent widening because
// AddCounterexample only ever appends new words beyond the snapshotted
// lengths and replaces (never mutates) the golden vectors: a stale View
// keeps reading a consistent previous stimulus generation. Inside the
// search engine staleness never even arises — counterexamples are learned
// at coordinator barriers while workers are idle, and each worker re-syncs
// its view at the next batch — so per-seed determinism is preserved for
// any worker count.
type View struct {
	spec     *Spec
	stimulus []bits.Vec // snapshotted headers; backing words are immutable
	golden   []bits.Vec
	words    int
	samples  int
	id, gen  uint64

	stats Stats // local shard; merged into the spec by Flush
}

// NewView snapshots the spec's current stimulus generation.
func (s *Spec) NewView() *View {
	v := &View{spec: s}
	v.Sync()
	return v
}

// Fresh reports — with one atomic load, no lock — whether the snapshot
// still matches the spec's stimulus generation.
func (v *View) Fresh() bool { return v.gen == v.spec.genLive.Load() }

// Words returns the snapshotted stimulus width in 64-bit words.
func (v *View) Words() int { return v.words }

// Sync re-snapshots the stimulus tables under the spec's read lock. Called
// at batch boundaries (or whenever Fresh reports staleness); existing
// vector headers are reused, so a steady-state re-sync does not allocate.
func (v *View) Sync() {
	s := v.spec
	s.mu.RLock()
	v.stimulus = append(v.stimulus[:0], s.stimulus...)
	v.golden = append(v.golden[:0], s.golden...)
	v.words, v.samples = s.words, s.samples
	v.id, v.gen = s.id, s.gen
	s.mu.RUnlock()
}

// Flush merges the locally accumulated oracle counters into the spec. One
// lock acquisition per batch instead of several per evaluation; merge order
// across workers is irrelevant because the counters only ever sum.
func (v *View) Flush() {
	v.spec.mergeStats(v.stats)
	v.stats = Stats{}
}

// Check evaluates a candidate netlist against the snapshot: bit-parallel
// simulation screen, then either an exhaustive proof or a SAT confirmation
// that honors ctx cancellation. Identical verdict semantics to
// Spec.CheckContext on the same stimulus generation, but entirely lock-free
// on the simulation path. The caller owns sim (sized for v.Words()) and
// must not share the View across goroutines.
func (v *View) Check(ctx context.Context, n *rqfp.Netlist, sim *rqfp.SimContext, active []bool) Verdict {
	s := v.spec
	if n.NumPI != s.NumPI || len(n.POs) != s.NumPO {
		return Verdict{}
	}
	if active == nil {
		active = n.ActiveGates()
	}
	if sim == nil || sim.Words() != v.words {
		sim = rqfp.NewSimContext(n.NumPorts(), v.words)
	}
	sim.RunTagged(n, v.stimulus, active, v.id, v.gen)
	wrong := countWrong(n, sim, v.golden, v.samples, v.words)
	return s.finishCheck(ctx, n, wrong, v.samples*s.NumPO, &v.stats)
}
