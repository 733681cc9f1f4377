package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// Options configures the (1+λ) evolution (Algorithm 1 of the paper).
type Options struct {
	// Lambda is the offspring count per generation (λ). Default 4.
	Lambda int
	// Generations is the generation budget N. The paper uses 5·10⁷ on a
	// cluster; the default here is laptop-scale. Default 20000.
	Generations int
	// MutationRate is μ ∈ [0,1]: each offspring receives up to μ·n_L point
	// mutations. The paper sets μ = 1; smaller values are far more sample
	// efficient at small generation budgets. Default 0.05.
	MutationRate float64
	// Seed drives all randomness; runs are deterministic per seed — for
	// any Workers value, because offspring RNG streams are pre-drawn by
	// the coordinator and results are reduced in offspring order.
	Seed int64
	// ShrinkOnImprove removes useless gates from the chromosome whenever a
	// strictly better parent is adopted, instead of only once at the end
	// (§3.2.3). Shrinking early reduces the search space but also removes
	// the inactive-gate material CGP's neutral drift feeds on, so the
	// default shrinks only the final individual, as in the paper's Fig. 3.
	ShrinkOnImprove bool
	// Workers bounds the goroutines evaluating one generation's offspring
	// concurrently. Useful up to min(Lambda, GOMAXPROCS); the result is
	// bit-identical to Workers = 1 on the same seed. Default 1.
	Workers int
	// Islands runs that many independent (1+λ) populations, each seeded
	// from Seed, with the best individual migrating around a ring every
	// MigrateEvery generations. The islands share the Workers bound:
	// min(Workers, Islands) of them run at once, each on Workers/Islands
	// evaluation workers when that is more than one. Default 1 (no island
	// model).
	Islands int
	// MigrateEvery is the island epoch length in generations between
	// migrations (Islands > 1 only). Default 500.
	MigrateEvery int
	// TimeBudget optionally bounds wall-clock time (0 = unlimited). It is
	// implemented as a context deadline, so it also interrupts in-flight
	// SAT proofs.
	TimeBudget time.Duration
	// Progress, when non-nil, is called every ProgressEvery generations
	// with the current generation and parent fitness (with Islands > 1,
	// once per migration epoch with the best fitness across islands).
	// Progress is always invoked from a single goroutine — the engine
	// coordinator, never a worker — regardless of Workers and Islands, so
	// callbacks need no locking.
	Progress      func(gen int, best Fitness)
	ProgressEvery int
	// Trace, when non-nil, receives JSONL evolution events: generation
	// checkpoints at the Progress cadence, improvement and shrink
	// adoptions, island migrations, and a final summary. With Workers > 1
	// all events still come from the coordinator goroutine; with
	// Islands > 1 the island engines emit concurrently (the Tracer
	// serializes internally and events carry an "island" tag). The
	// per-candidate evaluation path emits nothing, so an attached tracer
	// does not slow the hot loop.
	Trace *obs.Tracer
	// Metrics, when non-empty, receives per-worker evaluation-latency
	// histograms (cgp.eval.worker_N), island migration counters, and the
	// live search gauges (cgp.generation, cgp.best_gates,
	// cgp.best_garbage). A Scope fans every write out to all of its
	// registries, so the same run can feed a per-job registry and the
	// process-global one at once.
	Metrics *obs.Scope
	// FlightEvery, when positive, samples the search flight recorder every
	// that many generations: generation, best fitness, depth/buffer/JJ
	// costs, the full/incremental/dedup evaluation split, and throughput.
	// Sampling runs on the coordinator goroutine, reads only
	// coordinator-owned state, and draws no randomness, so a recorded run
	// is bit-identical per seed to an unrecorded one. Like checkpointing it
	// is a single-population feature: with Islands > 1 the island engines
	// have no common sampling barrier, so the recorder is disabled.
	// Default off.
	FlightEvery int
	// FlightCap bounds the retained flight samples; older samples are
	// overwritten ring-buffer style. Default 1024.
	FlightCap int
	// FlightSink, when non-nil, additionally receives every flight sample
	// as it is taken — the live-streaming hook of the service layer. Called
	// on the coordinator goroutine only, so implementations are serialized
	// but must not block for long.
	FlightSink func(FlightSample)
	// CheckpointEvery, when positive, emits a restartable Checkpoint to
	// CheckpointFn every that many generations. Like Progress, the callback
	// runs on the coordinator goroutine only. Checkpointing is a
	// single-population feature: with Islands > 1 the island engines have
	// no common barrier at the checkpoint cadence, so the hooks are
	// ignored.
	CheckpointEvery int
	CheckpointFn    func(Checkpoint)
	// Resume restarts the evolution from a Checkpoint taken under the same
	// Seed and Lambda: the checkpoint chromosome replaces the initial
	// netlist, the generation counter continues from the snapshot, and the
	// coordinator RNG is fast-forwarded, so the trajectory of adopted
	// parents matches the uninterrupted run. Generations still bounds the
	// total (resumed + new) generation count. Not supported with
	// Islands > 1.
	Resume *Checkpoint
}

func (o Options) withDefaults() Options {
	if o.Lambda <= 0 {
		o.Lambda = 4
	}
	if o.Generations <= 0 {
		o.Generations = 20000
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.05
	}
	if o.MutationRate > 1 {
		o.MutationRate = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Workers > o.Lambda {
		o.Workers = o.Lambda // more workers than offspring would idle
	}
	if o.Islands <= 0 {
		o.Islands = 1
	}
	if o.MigrateEvery <= 0 {
		o.MigrateEvery = 500
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = 1000
	}
	return o
}

// Result reports the outcome of an optimization run.
type Result struct {
	Best        *rqfp.Netlist
	Fitness     Fitness
	Generations int
	Evaluations int64
	Improved    int // number of strict parent improvements
	Elapsed     time.Duration
	// Telemetry carries the full per-run counter snapshot (Evaluations,
	// Improved, and Elapsed above are retained as convenience mirrors).
	Telemetry Telemetry
	// Flight is the retained flight-recorder window in chronological order
	// (empty unless Options.FlightEvery was set).
	Flight []FlightSample
}

// Merge folds an earlier search phase's report into r: evaluation and
// improvement counters and the telemetry are accumulated, and the better
// of the two best individuals is kept. It is the reduction used when one
// search phase hands its netlist on to the next — the hybrid optimizer's
// CGP→annealing handoff.
func (r *Result) Merge(prev *Result) {
	if prev == nil {
		return
	}
	r.Evaluations += prev.Evaluations
	r.Improved += prev.Improved
	r.Telemetry.Add(prev.Telemetry)
	if len(prev.Flight) > 0 {
		r.Flight = append(append([]FlightSample{}, prev.Flight...), r.Flight...)
	}
	if !r.Fitness.BetterOrEqual(prev.Fitness) {
		r.Best = prev.Best
		r.Fitness = prev.Fitness
	}
}

// Optimize evolves the initial RQFP netlist against the specification,
// minimizing gate count, garbage outputs, and buffer count in that order
// while preserving (proved) functional equivalence. The initial netlist
// must itself satisfy the specification.
func Optimize(initial *rqfp.Netlist, spec *cec.Spec, opt Options) (*Result, error) {
	return OptimizeContext(context.Background(), initial, spec, opt)
}

// OptimizeContext is Optimize under an external cancellation context: a
// cancelled ctx stops the evolution (and any in-flight SAT proof) and
// returns the best individual found so far, with Telemetry.StopReason
// explaining the interruption.
func OptimizeContext(ctx context.Context, initial *rqfp.Netlist, spec *cec.Spec, opt Options) (*Result, error) {
	return optimize(ctx, initial, NewSpecEvaluator(spec), opt)
}

// optimize runs the (1+λ) engine, or the island model, on ev.
func optimize(ctx context.Context, initial *rqfp.Netlist, ev Evaluator, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if opt.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.TimeBudget)
		defer cancel()
	}
	start := time.Now()
	if opt.Islands > 1 {
		if opt.Resume != nil {
			return nil, errors.New("core: checkpoint resume is not supported with Islands > 1")
		}
		return optimizeIslands(ctx, start, initial, ev, opt)
	}
	gens := opt.Generations
	parent := initial.Clone()
	if cp := opt.Resume; cp != nil {
		restored, err := cp.ParseChromosome()
		if err != nil {
			return nil, err
		}
		if restored.NumPI != initial.NumPI || len(restored.POs) != len(initial.POs) {
			return nil, fmt.Errorf("core: checkpoint interface (%d PIs, %d POs) does not match the specification (%d PIs, %d POs)",
				restored.NumPI, len(restored.POs), initial.NumPI, len(initial.POs))
		}
		parent = restored
		gens -= cp.Generation
		if gens < 0 {
			gens = 0
		}
	}
	e, err := newEngine(newGenotype(parent), ev, opt, -1)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if opt.Resume != nil {
		if err := e.restore(opt.Resume); err != nil {
			return nil, err
		}
	}
	reason := e.run(ctx, gens)
	res := e.result(start, reason)
	if opt.Trace != nil {
		opt.Trace.Emit("cgp.done", map[string]any{
			"gens": res.Generations, "evals": res.Evaluations,
			"improvements": res.Telemetry.Improvements, "neutral": res.Telemetry.NeutralAdoptions,
			"gates": res.Fitness.Gates, "garbage": res.Fitness.Garbage,
		})
	}
	return res, nil
}
