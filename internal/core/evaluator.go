package core

import (
	"context"

	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// Outcome is one candidate evaluation result.
type Outcome struct {
	// Fitness is the candidate's lexicographic fitness.
	Fitness Fitness
	// Counterexample, when non-nil, is a distinguishing input assignment
	// the oracle found but did not yet learn. The engine feeds it back via
	// Learn at a deterministic point (the reduction step), never from a
	// worker goroutine.
	Counterexample []bool
	// Aborted marks an evaluation cut short by context cancellation; its
	// Fitness is meaningless and the engine must not count or adopt it.
	Aborted bool
	// Dedup marks an offspring whose phenotype is provably identical to
	// the parent's: the Fitness was inherited without touching the oracle.
	Dedup bool
	// Incremental marks an evaluation served by dirty-cone re-simulation;
	// ConeGates is the number of gates it simulated before the verdict,
	// inactive cone gates included.
	Incremental bool
	ConeGates   int
}

// Delta is the mutation record an offspring carries to the incremental
// evaluator: the gates and primary outputs whose genes changed relative to
// the parent (duplicates allowed, empty when no mutation applied).
type Delta struct {
	Gates []int32
	POs   []int32
}

// Evaluator scores candidate netlists. One Evaluator instance is owned by
// exactly one goroutine (it carries mutable scratch buffers); Fork derives
// an independent instance sharing the same underlying oracle for another
// worker. Learn feeds a counterexample from a previous Outcome back into
// the shared oracle and must only be called from the engine's reducer, so
// stimulus widening stays ordered and deterministic.
type Evaluator interface {
	Evaluate(ctx context.Context, n *rqfp.Netlist) Outcome
	Fork() Evaluator
	Learn(cex []bool)
}

// DeltaEvaluator extends Evaluator with incremental scoring of mutated
// offspring. SyncParent makes a parent resident (epoch identifies the
// engine's current parent so workers can cheaply detect adoption and
// migration); EvaluateDelta scores a candidate that shares the parent's
// shape, given the gates and POs whose genes changed. Implementations must
// return bit-identical Fitness to Evaluate for every candidate the engine
// can adopt; the only permitted divergence is an approximate Match on
// refuted (invalid) candidates when the implementation runs in fast-refute
// mode, which a valid parent never adopts.
type DeltaEvaluator interface {
	Evaluator
	SyncParent(epoch uint64, parent *rqfp.Netlist, fit Fitness)
	EvaluateDelta(ctx context.Context, n *rqfp.Netlist, delta Delta) Outcome
}

// StatsFlusher is implemented by evaluators that buffer shared-oracle
// statistics in per-goroutine shards. The engine calls FlushStats at batch
// boundaries (and once when a run finishes) so the oracle's totals are
// complete whenever the coordinator — or anything downstream of it — reads
// them, while the per-candidate hot path never takes the oracle's stats
// lock.
type StatsFlusher interface {
	FlushStats()
}

// SpecEvaluator evaluates candidates against a cec.Spec: cost extraction on
// the active cone, then the oracle's simulation screen plus proof. The
// scratch simulation context and cost evaluator are reused across calls so
// the hot loop stays allocation-free.
//
// The oracle is read through a private cec.View — a per-goroutine snapshot
// of the stimulus tables plus a local statistics shard — so concurrent
// forked evaluators share no locks on the evaluation path. The view
// re-syncs itself when the oracle widens its stimulus, and its buffered
// counters reach the Spec on FlushStats.
type SpecEvaluator struct {
	spec  *cec.Spec
	view  *cec.View
	sim   *rqfp.SimContext
	costs rqfp.CostEvaluator

	// Exact disables the fast-refute early exit in EvaluateDelta, making
	// the incremental path report the same Match value as Evaluate even for
	// refuted candidates (used by differential tests; slower).
	Exact bool

	// Incremental-evaluation state: the resident parent this worker last
	// synced (identified by the engine's parentEpoch), its fitness, and a
	// private copy of its active mask for the phenotype-dedup compare.
	inc          *cec.Incremental
	parent       *rqfp.Netlist
	parentFit    Fitness
	parentActive []bool
	parentEpoch  uint64
}

// NewSpecEvaluator wraps spec for single-goroutine use; Fork it once per
// additional worker.
func NewSpecEvaluator(spec *cec.Spec) *SpecEvaluator {
	return &SpecEvaluator{spec: spec}
}

// Fork returns a fresh evaluator over the same oracle with its own scratch
// buffers.
func (e *SpecEvaluator) Fork() Evaluator {
	return &SpecEvaluator{spec: e.spec, Exact: e.Exact}
}

// Learn folds a counterexample into the oracle's stimulus.
func (e *SpecEvaluator) Learn(cex []bool) { e.spec.AddCounterexample(cex) }

// FlushStats merges the view's locally buffered oracle counters into the
// shared Spec. Called by the engine at batch boundaries; cheap (one mutex
// acquisition, a no-op on an empty shard).
func (e *SpecEvaluator) FlushStats() {
	if e.view != nil {
		e.view.Flush()
	}
}

// ensureView lazily snapshots the oracle and re-syncs a stale snapshot.
func (e *SpecEvaluator) ensureView() *cec.View {
	if e.view == nil {
		e.view = e.spec.NewView()
	} else if !e.view.Fresh() {
		e.view.Sync()
	}
	return e.view
}

// Evaluate scores one candidate. Safe to call concurrently on distinct
// (forked) evaluators.
func (e *SpecEvaluator) Evaluate(ctx context.Context, n *rqfp.Netlist) Outcome {
	if ctx.Err() != nil {
		return Outcome{Aborted: true}
	}
	v := e.ensureView()
	if words := v.Words(); e.sim == nil || e.sim.Words() != words {
		// The oracle widened its stimulus with a counterexample.
		e.sim = rqfp.NewSimContext(n.NumPorts(), words)
	}
	c := e.costs.Eval(n)
	verdict := v.Check(ctx, n, e.sim, e.costs.Active())
	out := Outcome{Counterexample: verdict.Counterexample, Aborted: verdict.Aborted}
	if verdict.Proved {
		out.Fitness = Fitness{
			Valid:   true,
			Match:   1,
			Gates:   c.Gates,
			Garbage: c.Garbage,
			Buffers: c.Buffers,
		}
	} else {
		out.Fitness = Fitness{Match: verdict.Match}
	}
	return out
}

// SyncParent makes parent resident for incremental evaluation. The engine
// calls it at the start of every offspring batch with its current parent
// epoch; the (re-)simulation only happens when the epoch moved (adoption,
// migration) or the oracle widened its stimulus since the last sync.
func (e *SpecEvaluator) SyncParent(epoch uint64, parent *rqfp.Netlist, fit Fitness) {
	if e.inc == nil {
		// Share the full-path view, so both evaluation paths feed one
		// statistics shard and re-sync one snapshot.
		e.inc = cec.NewIncrementalView(e.ensureView())
	}
	if epoch == e.parentEpoch && e.parent == parent && !e.inc.Stale() {
		return
	}
	e.parent = parent
	e.parentFit = fit
	e.parentEpoch = epoch
	e.costs.Eval(parent)
	e.parentActive = append(e.parentActive[:0], e.costs.Active()...)
	// A valid fitness means the parent was proved equal to the spec.
	e.inc.SetParent(parent, e.parentActive, fit.Valid)
}

// sameAsParent decides phenotype identity with the resident parent in
// O(|delta|): the candidate's chromosome differs from the parent's only at
// the recorded dirty genes, so the phenotypes are identical iff every PO
// gene is unchanged and every differing gate gene sits on a gate that is
// inactive in the parent. (Unchanged POs plus unchanged active genes give
// the same reachability, so such gates stay inactive in the candidate too;
// this is rqfp.PhenotypeEqual restricted to the delta.) Identical
// phenotype implies the identical verdict and cost metrics the full path
// would compute, so the parent's fitness is inherited exactly.
func (e *SpecEvaluator) sameAsParent(n *rqfp.Netlist, delta Delta) bool {
	if len(n.Gates) != len(e.parent.Gates) || len(n.POs) != len(e.parent.POs) {
		return false
	}
	for _, po := range delta.POs {
		if n.POs[po] != e.parent.POs[po] {
			return false
		}
	}
	for _, g := range delta.Gates {
		if e.parentActive[g] && n.Gates[g] != e.parent.Gates[g] {
			return false
		}
	}
	return true
}

// EvaluateDelta scores a mutated offspring of the resident parent by
// dirty-cone re-simulation, after first trying to prove the phenotype
// identical to the parent's (in which case the parent's fitness is
// inherited outright — identical active cone and POs imply identical
// verdict and identical cost metrics). Falls back to the full Evaluate
// path when the resident parent is stale.
func (e *SpecEvaluator) EvaluateDelta(ctx context.Context, n *rqfp.Netlist, delta Delta) Outcome {
	if ctx.Err() != nil {
		return Outcome{Aborted: true}
	}
	if e.inc == nil || e.parent == nil {
		return e.Evaluate(ctx, n)
	}
	if e.sameAsParent(n, delta) {
		return Outcome{Fitness: e.parentFit, Dedup: true}
	}
	// Refuted candidates (the common case) need no cost metrics, so they
	// are extracted only from a candidate that proves equivalent.
	v, cone, ok := e.inc.CheckDelta(ctx, n, delta.Gates, delta.POs, !e.Exact)
	if !ok {
		return e.Evaluate(ctx, n)
	}
	out := Outcome{
		Counterexample: v.Counterexample,
		Aborted:        v.Aborted,
		Incremental:    true,
		ConeGates:      cone,
	}
	if v.Proved {
		c := e.costs.Eval(n)
		out.Fitness = Fitness{
			Valid:   true,
			Match:   1,
			Gates:   c.Gates,
			Garbage: c.Garbage,
			Buffers: c.Buffers,
		}
	} else {
		out.Fitness = Fitness{Match: v.Match}
	}
	return out
}
