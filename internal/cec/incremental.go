package cec

import (
	"context"
	mathbits "math/bits"
	"slices"

	"github.com/reversible-eda/rcgp/internal/bits"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// Incremental checks mutated offspring against a Spec by dirty-cone
// re-simulation: SetParent makes the parent's full port vectors resident
// (all gates, so every base vector is valid), and CheckDelta re-simulates
// only the fan-out cone of the changed genes, recounting wrong bits only
// for primary outputs whose value (or gene) changed and inheriting the
// parent's per-output counts everywhere else. The verdict semantics match
// CheckContext exactly in exact mode. Fast-refute mode, when the parent
// matches every sample, screens in two stages: a sweep on word 0 of the
// stimulus alone, then a full-width sweep for a candidate that passes;
// each ends at the first wrong output. It may report an approximate
// (per-output lower-bounded) Match for refuted candidates, but never
// changes a proved/refuted verdict.
//
// When the parent is proved equal to the spec and the spec is not
// exhaustive, an offspring that passes the screen is proved against the
// parent instead of the spec: a miter that shares every gate outside the
// mutated cone and hashes majorities structurally, usually settled by the
// hash alone, with no CNF built and no solver call. Only a refutation goes
// on to the spec miter (Prove), for the counterexample the spec path would
// return, so the verdicts, counterexamples and SAT verdict counts equal
// CheckContext's; the solver counters and SATTime count the solves
// actually run.
//
// The oracle is read through a snapshot of the spec's stimulus tables and
// the statistics accumulate in a local shard until Flush merges them, so
// the whole delta path — simulation, mismatch counting, statistics — runs
// without touching the Spec's locks. The snapshot is safe against
// concurrent widening because AddCounterexample only ever appends words
// beyond the snapshotted lengths and replaces (never mutates) the golden
// vectors: a stale snapshot keeps reading a consistent previous stimulus
// generation until SetParent re-takes it. Inside the search engine
// counterexamples are learned at coordinator barriers while workers are
// idle, so per-seed determinism holds for any worker count.
//
// One Incremental is owned by one goroutine, like the SimContext inside
// it. The Spec it wraps may be shared.
type Incremental struct {
	spec *Spec

	// The stimulus snapshot: headers copied from the spec under its read
	// lock (the backing words are immutable), taken by SetParent. gen is
	// the stimulus generation the snapshot and the resident parent's
	// vectors belong to; a mismatch with the spec means both are stale.
	stimulus []bits.Vec
	golden   []bits.Vec
	words    int
	samples  int
	id, gen  uint64

	stats Stats // local shard; merged into the spec by Flush

	base  *rqfp.SimContext
	delta *rqfp.DeltaSim

	// parentWrong holds the parent's wrong-bit count per primary output
	// (all zero when the parent satisfies the spec, as the (1+λ) engine
	// guarantees); parentTotal is their sum.
	parentWrong []int
	parentTotal int

	// parent is the resident parent netlist and parentActive its active
	// mask; parentProved records that it is proved equal to the spec,
	// which lets CheckDelta prove offspring against it.
	parent       *rqfp.Netlist
	parentActive []bool
	parentProved bool

	// stop is RunDelta's stop set: the ports the parent's primary outputs
	// read. CheckDelta unwatches the ports of an offspring's dirty outputs
	// for the length of one check.
	stop []bool

	// costs computes an offspring's active mask for the parent-relative
	// proof.
	costs rqfp.CostEvaluator

	poDirty []bool      // per-PO scratch for CheckDelta
	miter   parentMiter // per-check scratch of the parent-relative proof
}

// NewIncremental returns a checker over spec with no resident parent;
// SetParent takes the first stimulus snapshot.
func NewIncremental(spec *Spec) *Incremental {
	return &Incremental{spec: spec}
}

// Stale reports whether the stimulus has been widened (or the parent never
// set) since the last SetParent, so the resident vectors no longer match
// the oracle. The caller re-syncs with SetParent. Lock-free: one atomic
// load.
func (inc *Incremental) Stale() bool {
	return inc.base == nil || inc.gen != inc.spec.genLive.Load()
}

// Flush merges the locally accumulated oracle counters into the spec. One
// lock acquisition per batch instead of several per evaluation; merge order
// across workers is irrelevant because the counters only ever sum.
func (inc *Incremental) Flush() {
	inc.spec.mergeStats(inc.stats)
	inc.stats = Stats{}
}

// SetParent makes parent the resident base: a full simulation of ALL gates
// (active and inactive, so any rewiring in an offspring finds valid source
// vectors) plus the per-output wrong-bit counts against the golden
// responses. active is the parent's active mask (nil recomputes it).
// proved must be true only if the parent was proved equal to the spec —
// matching the random samples proves nothing. The stimulus snapshot is
// re-taken first when the spec widened since the last one. parent and
// active must stay unchanged until the next SetParent.
func (inc *Incremental) SetParent(parent *rqfp.Netlist, active []bool, proved bool) {
	s := inc.spec
	if inc.gen != s.genLive.Load() {
		s.mu.RLock()
		inc.stimulus = append(inc.stimulus[:0], s.stimulus...)
		inc.golden = append(inc.golden[:0], s.golden...)
		inc.words, inc.samples = s.words, s.samples
		inc.id, inc.gen = s.id, s.gen
		s.mu.RUnlock()
	}
	if inc.base == nil || inc.base.Words() != inc.words {
		inc.base = rqfp.NewSimContext(parent.NumPorts(), inc.words)
		inc.delta = rqfp.NewDeltaSim(inc.base)
	}
	inc.base.RunTagged(parent, inc.stimulus, nil, inc.id, inc.gen)
	if active == nil {
		active = parent.ActiveGates()
	}
	inc.parent, inc.parentActive, inc.parentProved = parent, active, proved
	if cap(inc.parentWrong) < s.NumPO {
		inc.parentWrong = make([]int, s.NumPO)
		inc.poDirty = make([]bool, s.NumPO)
	}
	inc.parentWrong = inc.parentWrong[:s.NumPO]
	inc.poDirty = inc.poDirty[:s.NumPO]
	inc.parentTotal = 0
	tail := bits.TailMask(inc.samples, inc.words)
	for i, po := range parent.POs {
		w := bits.XorPopcountMasked(inc.base.Port(po), inc.golden[i], tail)
		inc.parentWrong[i] = w
		inc.parentTotal += w
	}
	inc.stop = slices.Grow(inc.stop[:0], parent.NumPorts())[:parent.NumPorts()]
	clear(inc.stop)
	for _, po := range parent.POs {
		inc.stop[po] = true
	}
}

// CheckDelta evaluates a mutated offspring of the resident parent. The
// candidate must share the parent's shape (the CGP point mutations only
// rewire and flip, never grow). dirtyGates lists gates whose genes changed,
// dirtyPOs the primary outputs whose gene changed; duplicates are fine.
//
// fastRefute trades Match precision for speed on refuted candidates. With
// a parent that matches every sample, an output whose gene did not change
// reads the same port as in the parent, whose base vector is the golden
// response; so a sweep stops at the first such port that differs under
// the sample mask, and the candidate is refuted with a Match from that
// output's wrong bits alone. When the stimulus is wider than one word,
// DeltaSim.Screen first sweeps the cone on word 0 alone, which lies wholly
// inside the sample mask: a stop there refutes the candidate with Match
// from that output's word-0 wrong bits, and only a candidate that passes
// goes on to the full-width sweep. One wrong sample suffices, and most
// refuted candidates have one in word 0. A full-width sweep that runs to
// the end screens each changed output with a word-level early-exit
// comparison and takes the full wrong-bit count only on outputs that
// differ. The proved/refuted verdict, the oracle counters, and every
// Match value of non-refuted candidates are unaffected.
//
// A candidate that passes the screen is proved against a proved parent,
// otherwise against the spec, with the same verdict either way. Only then
// is its active mask computed.
//
// ok is false when the resident parent is stale (or absent) — the caller
// falls back to the full path and re-syncs. coneGates is the number of
// gates simulated before the verdict, by the screen and any full-width
// sweep after it.
func (inc *Incremental) CheckDelta(ctx context.Context, n *rqfp.Netlist, dirtyGates, dirtyPOs []int32, fastRefute bool) (v Verdict, coneGates int, ok bool) {
	s := inc.spec
	if n.NumPI != s.NumPI || len(n.POs) != s.NumPO {
		return Verdict{}, 0, true
	}
	if inc.Stale() {
		return Verdict{}, 0, false
	}
	tail := bits.TailMask(inc.samples, inc.words)
	totalBits := inc.samples * s.NumPO
	var stop []bool
	if fastRefute && inc.parentTotal == 0 {
		stop = inc.stop
		for _, po := range dirtyPOs {
			stop[inc.parent.POs[po]] = false
		}
	}
	if stop != nil && inc.words > 1 {
		// Word 0 lies wholly inside the sample mask, so a watched port
		// that differs there refutes the candidate, with the differing
		// bits as its wrong bits: the base is the golden response.
		cone, _, diff := inc.delta.Screen(n, dirtyGates, stop)
		coneGates = cone
		if diff != 0 {
			inc.rewatch(dirtyPOs)
			return s.finishCheck(ctx, n, mathbits.OnesCount64(diff), totalBits, &inc.stats), coneGates, true
		}
	}
	cone, at, stopped := inc.delta.RunDelta(n, dirtyGates, stop, tail)
	coneGates += cone
	if stop != nil {
		inc.rewatch(dirtyPOs)
	}
	if stopped {
		// No output that reads a watched port in the parent changed its
		// gene, so output i reads the port in the child too.
		i := slices.Index(inc.parent.POs, at)
		wrong := bits.XorPopcountMasked(inc.delta.Port(at), inc.golden[i], tail)
		return s.finishCheck(ctx, n, wrong, totalBits, &inc.stats), coneGates, true
	}
	for i := range inc.poDirty {
		inc.poDirty[i] = false
	}
	for _, po := range dirtyPOs {
		inc.poDirty[po] = true
	}
	wrong := inc.parentTotal
	for i, po := range n.POs {
		if !inc.poDirty[i] && !inc.delta.Dirty(po) {
			continue // inherits the parent's count
		}
		got := inc.delta.Port(po)
		var w int
		if fastRefute && bits.EqualMasked(got, inc.golden[i], tail) {
			w = 0
		} else {
			w = bits.XorPopcountMasked(got, inc.golden[i], tail)
		}
		wrong += w - inc.parentWrong[i]
		if fastRefute && wrong > 0 && inc.parentTotal == 0 {
			// Refutation established: with a satisfying parent every
			// remaining output contributes a non-negative count, so the
			// verdict cannot flip. The partial Match only ranks invalid
			// candidates, which a valid parent never adopts.
			break
		}
	}
	if wrong == 0 && !s.Exhaustive && inc.parentProved {
		return inc.proveAgainstParent(ctx, n, dirtyGates, inc.costs.ActiveOnly(n)), coneGates, true
	}
	return s.finishCheck(ctx, n, wrong, totalBits, &inc.stats), coneGates, true
}

// rewatch restores the stop set after a check unwatched the ports of the
// outputs in dirtyPOs.
func (inc *Incremental) rewatch(dirtyPOs []int32) {
	for _, po := range dirtyPOs {
		inc.stop[inc.parent.POs[po]] = true
	}
}
