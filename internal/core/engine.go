package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/reversible-eda/rcgp/internal/obs"
)

// evalSlot is the per-offspring state of one generation batch. Each slot
// owns its genotype storage, RNG, and mutation counters, so a worker can
// fill it without touching any shared state; the reducer drains the slots
// strictly in index order.
type evalSlot struct {
	g    *genotype
	rng  *rand.Rand
	stat MutationStats
	out  Outcome
	done bool // evaluation completed (not aborted)
}

// engine runs one (1+λ) population. The λ offspring of each generation are
// mutated and evaluated either inline (Workers == 1) or on a pool of
// persistent worker goroutines, but always from per-offspring RNG streams
// whose seeds the coordinator pre-draws in offspring order. Combined with
// the index-ordered reduction (adoption scan, telemetry merge, deferred
// counterexample learning), the search trajectory is bit-identical for any
// worker count on the same Options.Seed.
//
// Dispatch is batched: the λ slots are statically partitioned into one
// contiguous range per worker, and a generation costs exactly one channel
// send and one wg.Done per WORKER — not per offspring — so the coordinator
// handoff stays off the profile even at microsecond evaluation costs.
// Workers write results into their own slots (no result channel, no shared
// mutable state), re-sync their oracle snapshot at the top of each batch,
// and drain their local metric/statistics shards at the bottom, which makes
// the per-candidate hot path lock-free end to end. The static partition
// also means a given slot index is always evaluated by the same worker, so
// worker-local caches (resident parent simulations, SAT solver scratch) see
// a deterministic request sequence.
//
// Progress and Trace callbacks are only ever invoked from the goroutine
// that calls run — never from a worker — so user callbacks need no
// synchronization even with Workers > 1.
type engine struct {
	opt    Options
	island int // -1 for a plain single-population run

	eval  Evaluator // reducer-side root; workers use forks
	r     *rand.Rand
	seeds []int64

	parent    *genotype
	parentFit Fitness
	// parentEpoch identifies the current parent individual; it is bumped on
	// every adoption (and so before a shrink) and accepted migration, so
	// worker-local evaluators know when their resident parent simulation is
	// out of date, and offspring slots when undoing their last mutation no
	// longer restores the parent.
	parentEpoch uint64

	slots []*evalSlot
	// starts carries one wakeup per worker per generation; worker w then
	// runs the static slot range batches[w] = [lo, hi). Both are nil when
	// Workers == 1 (the coordinator runs the whole batch inline).
	starts  []chan struct{}
	batches [][2]int
	// shards are the per-worker local eval-latency accumulators, drained
	// into hists at batch boundaries; nil entries when unmetered. Index 0
	// doubles as the sequential engine's shard.
	shards []*obs.HistShard
	wg     sync.WaitGroup
	ctx    context.Context // batch context, published before the starts send

	gen int
	tel Telemetry

	// deferLearn queues counterexamples instead of applying them, so an
	// island coordinator can merge them across islands at epoch barriers.
	deferLearn bool
	pendingCex [][]bool

	hists    []obs.HistogramSet // per-worker eval latency, nil entries when unmetered
	coneHist obs.HistogramSet   // dirty-cone size distribution

	// Live search gauges, refreshed at the progress/flight cadence (no-op
	// sets when no metrics scope is attached).
	genGauge     obs.GaugeSet
	gatesGauge   obs.GaugeSet
	garbageGauge obs.GaugeSet

	// flight is the search flight recorder; startTime anchors its elapsed
	// and throughput fields.
	flight    *flightRing
	startTime time.Time
}

// newEngine validates and scores the initial netlist and starts the worker
// pool. The initial evaluation deliberately ignores cancellation (its SAT
// proof already succeeded during pipeline validation), so even a budget
// that expires immediately still yields a valid parent rather than an
// error. close must be called when the engine is done.
func newEngine(initial *genotype, ev Evaluator, opt Options, island int) (*engine, error) {
	e := &engine{opt: opt, island: island, eval: ev, r: rand.New(rand.NewSource(opt.Seed))}
	e.parentEpoch = 1
	e.startTime = time.Now()
	if opt.FlightEvery > 0 {
		e.flight = newFlightRing(opt.FlightCap)
	}
	e.parent = initial
	out := ev.Evaluate(context.Background(), e.parent.net)
	e.tel.count(out)
	if !out.Fitness.Valid {
		return nil, errors.New("core: initial netlist does not satisfy the specification")
	}
	e.parentFit = out.Fitness

	e.seeds = make([]int64, opt.Lambda)
	e.slots = make([]*evalSlot, opt.Lambda)
	for i := range e.slots {
		s := &evalSlot{g: newGenotype(e.parent.net.Clone()), rng: rand.New(new(mutSource))}
		s.g.stats = &s.stat
		e.slots[i] = s
	}
	e.hists = make([]obs.HistogramSet, opt.Workers)
	e.shards = make([]*obs.HistShard, opt.Workers)
	if !opt.Metrics.Empty() {
		for w := range e.hists {
			e.hists[w] = opt.Metrics.Histogram(e.histName(w))
			e.shards[w] = new(obs.HistShard)
		}
		// cgp.cone_gates observes, per incremental evaluation, the gates
		// simulated before the verdict, inactive cone gates included: the
		// one-word screen's plus any full-width sweep's.
		name := "cgp.cone_gates"
		if island >= 0 {
			name = fmt.Sprintf("cgp.cone_gates.island_%d", island)
		}
		e.coneHist = opt.Metrics.Histogram(name)
		if island < 0 {
			// Island engines share one scope; only a single-population run
			// owns the live search gauges.
			e.genGauge = opt.Metrics.Gauge("cgp.generation")
			e.gatesGauge = opt.Metrics.Gauge("cgp.best_gates")
			e.garbageGauge = opt.Metrics.Gauge("cgp.best_garbage")
		}
	}
	if opt.Workers > 1 {
		e.starts = make([]chan struct{}, opt.Workers)
		e.batches = make([][2]int, opt.Workers)
		for w := 0; w < opt.Workers; w++ {
			// Contiguous near-even split; Workers <= Lambda (clamped by
			// withDefaults), so every worker owns at least one slot.
			e.batches[w] = [2]int{w * opt.Lambda / opt.Workers, (w + 1) * opt.Lambda / opt.Workers}
			e.starts[w] = make(chan struct{}, 1)
			go e.worker(w, e.starts[w], ev.Fork())
		}
	}
	return e, nil
}

func (e *engine) histName(w int) string {
	if e.island >= 0 {
		return fmt.Sprintf("cgp.eval.island_%d.worker_%d", e.island, w)
	}
	return fmt.Sprintf("cgp.eval.worker_%d", w)
}

// close stops the worker pool. Safe to call more than once.
func (e *engine) close() {
	if e.starts != nil {
		for _, ch := range e.starts {
			close(ch)
		}
		e.starts = nil
	}
	// Publish the root evaluator's buffered oracle statistics, so Spec.Stats
	// reads taken after a run see complete totals.
	e.eval.FlushStats()
}

// worker evaluates its static slot range once per wakeup on start. Everything
// the batch reads (parent, fitness, epoch, seeds, ctx) was published by the
// coordinator before the starts send; everything it writes lands in its own
// slots and its own shards, which it drains before signalling completion.
// The channel is passed in rather than read from e.starts, which close
// clears, possibly before the worker goroutine first runs.
func (e *engine) worker(w int, start <-chan struct{}, ev Evaluator) {
	lo, hi := e.batches[w][0], e.batches[w][1]
	for range start {
		e.runBatch(lo, hi, ev, e.shards[w])
		if e.shards[w] != nil {
			e.hists[w].Drain(e.shards[w])
		}
		ev.FlushStats()
		e.wg.Done()
	}
}

// runBatch mutates and evaluates slots [lo, hi) on ev. The parent re-sync
// is hoisted to the top of the batch — the parent is frozen for the whole
// generation, so once per batch is exactly as often as it can change. A
// cancellation mid-batch marks the remaining slots aborted without
// evaluating them; the reducer abandons the generation either way.
func (e *engine) runBatch(lo, hi int, ev Evaluator, shard *obs.HistShard) {
	ev.SyncParent(e.parentEpoch, e.parent.net, e.parentFit)
	for i := lo; i < hi; i++ {
		if !e.runSlot(i, ev, shard) {
			for j := i + 1; j < hi; j++ {
				e.slots[j].out = Outcome{Aborted: true}
				e.slots[j].done = false
			}
			return
		}
	}
}

// runSlot mutates and evaluates offspring i into its slot, reporting false
// when the evaluation was aborted by cancellation. The slot's genotype
// becomes the parent again by undoing its last mutation while the parent
// epoch it was copied from lasts, and by a full copy after that. All
// inputs (parent, seed) were published by the coordinator before dispatch;
// all outputs stay inside the slot until the reducer reads them.
func (e *engine) runSlot(i int, ev Evaluator, shard *obs.HistShard) bool {
	s := e.slots[i]
	s.done = false
	if e.ctx.Err() != nil {
		s.out = Outcome{Aborted: true}
		return false
	}
	s.rng.Seed(e.seeds[i])
	s.g.reset(e.parent, e.parentEpoch)
	s.g.mutate(s.rng, e.opt.MutationRate)
	var start time.Time
	if shard != nil {
		start = time.Now()
	}
	s.out = ev.EvaluateDelta(e.ctx, s.g.net, Delta{Gates: s.g.dirtyGates, POs: s.g.dirtyPOs})
	if shard != nil {
		shard.Observe(time.Since(start))
	}
	s.done = !s.out.Aborted
	return s.done
}

// learn applies (or defers) a counterexample from the reducer.
func (e *engine) learn(cex []bool) {
	if e.deferLearn {
		e.pendingCex = append(e.pendingCex, cex)
		return
	}
	e.eval.Learn(cex)
}

// run advances the population by up to gens more generations and reports
// why it stopped ("" when the generation budget was reached). A context
// expiry mid-batch abandons the partial batch: the generation does not
// count, matching the sequential engine's historical TimeBudget semantics.
func (e *engine) run(ctx context.Context, gens int) StopReason {
	e.ctx = ctx
	for target := e.gen + gens; e.gen < target; e.gen++ {
		if ctx.Err() != nil {
			return stopFromCtx(ctx)
		}
		for i := range e.seeds {
			e.seeds[i] = e.r.Int63()
		}
		if e.starts != nil {
			// One buffered send per worker wakes the whole pool; the shared
			// WaitGroup is the only synchronization until the batch barrier.
			e.wg.Add(len(e.starts))
			for _, ch := range e.starts {
				ch <- struct{}{}
			}
			e.wg.Wait()
		} else {
			e.runBatch(0, len(e.slots), e.eval, e.shards[0])
			if e.shards[0] != nil {
				e.hists[0].Drain(e.shards[0])
			}
			e.eval.FlushStats()
		}

		// Reduce in offspring-index order: this fixes the order of
		// telemetry merges, counterexample learning, and the adoption
		// tie-break, independent of which worker finished first.
		aborted := false
		bestIdx := -1
		var bestFit Fitness
		for i, s := range e.slots {
			e.tel.Mutations.Add(s.stat)
			s.stat = MutationStats{}
			if !s.done {
				if s.out.Aborted {
					aborted = true
				}
				continue
			}
			e.tel.count(s.out)
			if s.out.Incremental && e.coneHist != nil {
				// The histogram's unit is nanoseconds elsewhere; here a
				// "duration" of n ns encodes a cone of n gates.
				e.coneHist.Observe(time.Duration(s.out.ConeGates))
			}
			if s.out.Counterexample != nil {
				e.learn(s.out.Counterexample)
			}
			if bestIdx < 0 || s.out.Fitness.BetterOrEqual(bestFit) {
				bestIdx, bestFit = i, s.out.Fitness
			}
		}
		if aborted {
			return stopFromCtx(ctx)
		}
		e.adopt(bestIdx, bestFit)

		e.maybeCheckpoint(e.gen + 1)

		if e.opt.FlightEvery > 0 && e.gen%e.opt.FlightEvery == 0 {
			e.recordFlight()
		}
		if e.gen%e.opt.ProgressEvery == 0 {
			e.updateGauges()
			if e.opt.Progress != nil {
				e.opt.Progress(e.gen, e.parentFit)
			}
			if e.opt.Trace != nil {
				e.opt.Trace.Emit("cgp.gen", e.traceFields(map[string]any{
					"gen": e.gen, "evals": e.tel.Evaluations,
					"gates": e.parentFit.Gates, "garbage": e.parentFit.Garbage,
					"match": e.parentFit.Match,
				}))
			}
		}
	}
	return ""
}

// adopt applies the (1+λ) "better or equal" rule to the generation's best
// offspring.
func (e *engine) adopt(bestIdx int, bestFit Fitness) {
	if bestIdx < 0 || !bestFit.BetterOrEqual(e.parentFit) {
		return
	}
	// Swap the winner into the parent slot; the old parent storage rejoins
	// the pool. The slot keeps counting into its own stats struct.
	s := e.slots[bestIdx]
	e.parent, s.g = s.g, e.parent
	e.parent.stats = nil
	s.g.stats = &s.stat
	e.parentEpoch++ // resident parent simulations are now stale
	strictly := bestFit.Better(e.parentFit)
	e.parentFit = bestFit
	e.tel.Adoptions++
	if !strictly {
		e.tel.NeutralAdoptions++
		return
	}
	e.tel.Improvements++
	if e.opt.Trace != nil {
		e.opt.Trace.Emit("cgp.improve", e.traceFields(map[string]any{
			"gen": e.gen, "evals": e.tel.Evaluations,
			"gates": bestFit.Gates, "garbage": bestFit.Garbage,
			"buffers": bestFit.Buffers,
		}))
	}
	if e.opt.ShrinkOnImprove {
		before := len(e.parent.net.Gates)
		e.parent = newGenotype(e.parent.net.Shrink())
		e.tel.Shrinks++
		if e.opt.Trace != nil {
			e.opt.Trace.Emit("cgp.shrink", e.traceFields(map[string]any{
				"gen": e.gen, "gates_before": before,
				"gates_after": len(e.parent.net.Gates),
			}))
		}
	}
}

// traceFields tags island runs so interleaved multi-population traces stay
// attributable.
func (e *engine) traceFields(f map[string]any) map[string]any {
	if e.island >= 0 {
		f["island"] = e.island
	}
	return f
}

// result assembles the Result after run finished.
func (e *engine) result(start time.Time, reason StopReason) *Result {
	if reason == "" {
		reason = StopGenerations
	}
	e.tel.StopReason = reason
	e.tel.Elapsed = time.Since(start)
	if e.opt.FlightEvery > 0 {
		e.recordFlight() // close the trajectory with a final sample
	}
	return &Result{
		Best:        e.parent.net.Shrink(),
		Fitness:     e.parentFit,
		Generations: e.gen,
		Evaluations: e.tel.Evaluations,
		Improved:    int(e.tel.Improvements),
		Elapsed:     e.tel.Elapsed,
		Telemetry:   e.tel,
		Flight:      e.flight.samples(),
	}
}
