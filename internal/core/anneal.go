package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// Simulated annealing over the same chromosome and mutation operators — an
// alternative optimizer used by the ablation benchmarks to justify the
// paper's choice of a (1+λ) evolutionary strategy. Unlike the ES, the
// annealer may accept strictly worse (but still functionally correct)
// neighbours early on, trading monotonicity for basin hopping.

// AnnealOptions configures Anneal.
type AnnealOptions struct {
	// Steps is the number of proposed moves. Default 20000.
	Steps int
	// MutationRate is the per-move μ, as in Options. Default 0.05.
	MutationRate float64
	// StartTemp scales the initial acceptance of worse moves, in units of
	// the scalarized cost (gates + garbage/10 + buffers/1000). Default 2.
	StartTemp float64
	// Seed drives randomness.
	Seed int64
	// TimeBudget optionally bounds wall-clock time, implemented as a
	// context deadline (it also interrupts in-flight SAT proofs).
	TimeBudget time.Duration
	// Trace, when non-nil, receives JSONL events for accepted improvements
	// and the final summary.
	Trace *obs.Tracer
}

func (o AnnealOptions) withDefaults() AnnealOptions {
	if o.Steps <= 0 {
		o.Steps = 20000
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.05
	}
	if o.StartTemp <= 0 {
		o.StartTemp = 2
	}
	return o
}

// scalarCost flattens the lexicographic fitness into one number for the
// annealer's acceptance rule. Valid candidates only.
func scalarCost(f Fitness) float64 {
	return float64(f.Gates) + float64(f.Garbage)/10 + float64(f.Buffers)/1000
}

// Anneal optimizes the netlist by simulated annealing, never leaving the
// space of functionally correct circuits (incorrect neighbours are always
// rejected, as in the paper's fitness rule 1).
func Anneal(initial *rqfp.Netlist, spec *cec.Spec, opt AnnealOptions) (*Result, error) {
	return AnnealContext(context.Background(), initial, spec, opt)
}

// AnnealContext is Anneal under an external cancellation context. The
// annealer's proposal chain is inherently sequential, so it always runs on
// one goroutine and learns counterexamples immediately (there is no batch
// whose determinism the widening could disturb).
func AnnealContext(ctx context.Context, initial *rqfp.Netlist, spec *cec.Spec, opt AnnealOptions) (*Result, error) {
	return anneal(ctx, initial, NewSpecEvaluator(spec), opt)
}

// anneal runs the annealer on ev. The current state is ev's resident
// parent, re-synced under a new epoch after every accepted move, and every
// proposal is scored by EvaluateDelta on the mutation it recorded — the
// path the (1+λ) engine scores its offspring on.
func anneal(ctx context.Context, initial *rqfp.Netlist, ev Evaluator, opt AnnealOptions) (*Result, error) {
	opt = opt.withDefaults()
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if opt.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.TimeBudget)
		defer cancel()
	}
	r := rand.New(rand.NewSource(opt.Seed))
	start := time.Now()

	res := &Result{}
	tel := &res.Telemetry
	// record counts a completed evaluation and learns its counterexample.
	record := func(out Outcome) Fitness {
		tel.count(out)
		if out.Counterexample != nil {
			ev.Learn(out.Counterexample)
		}
		return out.Fitness
	}

	cur := newGenotype(initial.Clone())
	cur.stats = &tel.Mutations
	curFit := record(ev.Evaluate(context.Background(), cur.net))
	if !curFit.Valid {
		return nil, errors.New("core: initial netlist does not satisfy the specification")
	}
	epoch := uint64(1)
	best := cur.clone()
	bestFit := curFit

	scratch := newGenotype(initial.Clone())
	scratch.stats = &tel.Mutations
	reason := StopGenerations
	step := 0
	for ; step < opt.Steps; step++ {
		if ctx.Err() != nil {
			reason = stopFromCtx(ctx)
			break
		}
		temp := opt.StartTemp * (1 - float64(step)/float64(opt.Steps))
		ev.SyncParent(epoch, cur.net, curFit)
		scratch.reset(cur, epoch)
		scratch.mutate(r, opt.MutationRate)
		out := ev.EvaluateDelta(ctx, scratch.net, Delta{Gates: scratch.dirtyGates, POs: scratch.dirtyPOs})
		if out.Aborted {
			reason = stopFromCtx(ctx)
			break
		}
		fit := record(out)
		if !fit.Valid {
			continue
		}
		delta := scalarCost(fit) - scalarCost(curFit)
		if delta <= 0 || (temp > 0 && r.Float64() < math.Exp(-delta/temp)) {
			cur, scratch = scratch, cur
			curFit = fit
			epoch++
			tel.Adoptions++
			if delta == 0 {
				tel.NeutralAdoptions++
			}
			if fit.BetterOrEqual(bestFit) {
				if fit.Better(bestFit) {
					res.Improved++
					tel.Improvements++
					if opt.Trace != nil {
						opt.Trace.Emit("anneal.improve", map[string]any{
							"step": step, "gates": fit.Gates,
							"garbage": fit.Garbage, "temp": temp,
						})
					}
				}
				best.copyFrom(cur)
				bestFit = fit
			}
		}
	}

	// Publish the oracle counters the evaluator buffered in its shard.
	ev.FlushStats()

	res.Best = best.net.Shrink()
	res.Fitness = bestFit
	res.Generations = step
	res.Evaluations = tel.Evaluations
	res.Elapsed = time.Since(start)
	tel.Elapsed = res.Elapsed
	tel.StopReason = reason
	if opt.Trace != nil {
		opt.Trace.Emit("anneal.done", map[string]any{
			"steps": step, "evals": tel.Evaluations,
			"improvements": tel.Improvements,
			"gates":        bestFit.Gates, "garbage": bestFit.Garbage,
		})
	}
	return res, nil
}
