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
	// inactive cone gates included: the one-word screen's gates plus those
	// of any full-width sweep after it.
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

// Evaluator scores candidate netlists for a search engine. Evaluate
// scores the initial parent in full; every offspring after it is scored by
// EvaluateDelta against the resident parent that SyncParent made current
// (epoch identifies the engine's current parent, so an instance can
// cheaply detect adoption and migration). EvaluateDelta must return the
// Fitness Evaluate would for every candidate the engine can adopt; the
// only permitted divergence is an approximate Match on refuted (invalid)
// candidates, which a valid parent never adopts. SpecEvaluator uses it:
// its two-stage screen refutes most offspring on one word of the stimulus,
// with a Match from that word, before any full-width sweep.
//
// One instance is owned by exactly one goroutine (it carries mutable
// scratch buffers); Fork derives an independent instance sharing the same
// underlying oracle for another worker. Learn feeds a counterexample from
// a previous Outcome back into the shared oracle and must only be called
// from the goroutine that drives the search (the engine's reducer), so
// stimulus widening stays ordered and deterministic. FlushStats publishes the oracle statistics an instance
// buffers locally; the engine calls it at batch boundaries and when a run
// finishes, so the oracle's totals are complete whenever anything reads
// them, while the per-candidate hot path never takes the oracle's lock.
type Evaluator interface {
	Evaluate(ctx context.Context, n *rqfp.Netlist) Outcome
	SyncParent(epoch uint64, parent *rqfp.Netlist, fit Fitness)
	EvaluateDelta(ctx context.Context, n *rqfp.Netlist, delta Delta) Outcome
	Fork() Evaluator
	Learn(cex []bool)
	FlushStats()
}

// SpecEvaluator evaluates candidates against a cec.Spec: the oracle's
// simulation screen plus proof, then cost extraction on the active cone of
// a candidate that proves equivalent. Offspring go through a private
// cec.Incremental — a per-goroutine stimulus snapshot, the resident
// parent's port vectors and a local statistics shard — so concurrent
// forked evaluators share no locks on the evaluation path; its buffered
// counters reach the Spec on FlushStats. Outside Exact mode the screen
// has two stages when the stimulus is wider than one word: the dirty cone
// on word 0 alone, then at full width for an offspring word 0 did not
// refute (see cec.Incremental.CheckDelta).
type SpecEvaluator struct {
	spec  *cec.Spec
	costs rqfp.CostEvaluator

	// Exact disables the fast-refute early exits in EvaluateDelta, the
	// one-word screen among them, making the incremental path report the
	// same Match value as Evaluate even for refuted candidates (used by
	// differential tests; slower).
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

// FlushStats merges the locally buffered oracle counters into the shared
// Spec. Cheap: one mutex acquisition, a no-op on an empty shard.
func (e *SpecEvaluator) FlushStats() {
	if e.inc != nil {
		e.inc.Flush()
	}
}

// Evaluate scores one candidate in full with a one-shot Spec.CheckContext:
// the initial parent, and the reference the differential tests hold the
// delta path to. Safe to call concurrently on distinct (forked) evaluators.
func (e *SpecEvaluator) Evaluate(ctx context.Context, n *rqfp.Netlist) Outcome {
	if ctx.Err() != nil {
		return Outcome{Aborted: true}
	}
	c := e.costs.Eval(n)
	v := e.spec.CheckContext(ctx, n, nil, e.costs.Active())
	return Outcome{Fitness: fitnessOf(v, c), Counterexample: v.Counterexample, Aborted: v.Aborted}
}

// fitnessOf turns an oracle verdict into a fitness; c is read only when
// the candidate is proved.
func fitnessOf(v cec.Verdict, c rqfp.Costs) Fitness {
	if !v.Proved {
		return Fitness{Match: v.Match}
	}
	return Fitness{Valid: true, Match: 1, Gates: c.Gates, Garbage: c.Garbage, Buffers: c.Buffers}
}

// SyncParent makes parent resident for incremental evaluation. The engine
// calls it at the start of every offspring batch, and the annealer before
// every proposal, with the current parent epoch; the (re-)simulation only
// happens when the epoch moved (adoption, migration) or the oracle widened
// its stimulus since the last sync. The parent's costs are already in fit,
// so only its active mask is computed.
func (e *SpecEvaluator) SyncParent(epoch uint64, parent *rqfp.Netlist, fit Fitness) {
	if e.inc == nil {
		e.inc = cec.NewIncremental(e.spec)
	}
	if epoch == e.parentEpoch && e.parent == parent && !e.inc.Stale() {
		return
	}
	e.parent = parent
	e.parentFit = fit
	e.parentEpoch = epoch
	e.parentActive = append(e.parentActive[:0], e.costs.ActiveOnly(parent)...)
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
// path when no parent is resident or it is stale.
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
	var c rqfp.Costs
	if v.Proved {
		c = e.costs.Eval(n)
	}
	return Outcome{
		Fitness:        fitnessOf(v, c),
		Counterexample: v.Counterexample,
		Aborted:        v.Aborted,
		Incremental:    true,
		ConeGates:      cone,
	}
}
