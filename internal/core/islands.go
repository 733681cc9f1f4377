package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// optimizeIslands runs K independent (1+λ) populations in lockstep epochs
// of MigrateEvery generations, with at most Workers offspring evaluated at
// once: each epoch runs the islands on min(Workers, K) goroutines, and an
// island owns Workers/K evaluation workers when that is more than one.
// Between epochs the coordinator — a single goroutine — applies the
// counterexamples the islands deferred (in island order, deduplicated) and
// migrates each island's best individual one step around a ring, accepting
// it only when strictly better than the local parent. Island seeds derive
// from the master seed and every cross-island interaction happens at the
// deterministic barrier, so the whole run is reproducible per seed
// regardless of scheduling.
func optimizeIslands(ctx context.Context, start time.Time, initial *rqfp.Netlist, ev Evaluator, opt Options) (*Result, error) {
	k := opt.Islands
	master := rand.New(rand.NewSource(opt.Seed))
	perWorkers := opt.Workers / k
	if perWorkers < 1 {
		perWorkers = 1
	}
	islands := make([]*engine, k)
	defer func() {
		for _, e := range islands {
			if e != nil {
				e.close()
			}
		}
	}()
	for i := range islands {
		iopt := opt
		iopt.Workers = perWorkers
		iopt.Seed = master.Int63()
		iopt.Progress = nil // only the coordinator reports progress
		iopt.CheckpointFn = nil
		iopt.CheckpointEvery = 0 // checkpointing is single-population only
		iopt.FlightEvery = 0     // so is the flight recorder
		iopt.FlightSink = nil
		root := ev
		if i > 0 {
			root = ev.Fork()
		}
		e, err := newEngine(newGenotype(initial.Clone()), root, iopt, i)
		if err != nil {
			return nil, err
		}
		e.deferLearn = true
		islands[i] = e
	}

	var migrations, accepted int64
	var reason StopReason
	remaining := opt.Generations
	epoch := 0
	for remaining > 0 {
		step := opt.MigrateEvery
		if step > remaining {
			step = remaining
		}
		runEpoch(ctx, islands, step, min(opt.Workers, k))
		remaining -= step
		epoch++

		// Learn deferred counterexamples in island order. Duplicates are
		// dropped: two islands refuted by the same assignment must widen
		// the stimulus once, not twice.
		seen := map[string]bool{}
		for _, e := range islands {
			for _, cex := range e.pendingCex {
				key := cexKey(cex)
				if !seen[key] {
					seen[key] = true
					ev.Learn(cex)
				}
			}
			e.pendingCex = e.pendingCex[:0]
		}
		if ctx.Err() != nil {
			reason = stopFromCtx(ctx)
			break
		}
		if remaining == 0 {
			break // nothing left to evolve; the global best is picked below
		}

		// Ring migration: island i receives the pre-migration best of
		// island i-1. Snapshot donors first so a hop cannot cascade around
		// the ring within one epoch.
		type donor struct {
			net *rqfp.Netlist
			fit Fitness
		}
		snap := make([]donor, k)
		for i, e := range islands {
			snap[i] = donor{e.parent.net, e.parentFit}
		}
		for i, e := range islands {
			from := (i - 1 + k) % k
			migrations++
			if !snap[from].fit.Better(e.parentFit) {
				continue
			}
			e.parent = newGenotype(snap[from].net.Clone())
			e.parentFit = snap[from].fit
			e.parentEpoch++ // resident parent simulations are now stale
			accepted++
			if opt.Trace != nil {
				opt.Trace.Emit("cgp.migrate", map[string]any{
					"epoch": epoch, "from": from, "to": i,
					"gates": e.parentFit.Gates, "garbage": e.parentFit.Garbage,
				})
			}
		}
		if opt.Progress != nil {
			best := 0
			for i := 1; i < k; i++ {
				if islands[i].parentFit.Better(islands[best].parentFit) {
					best = i
				}
			}
			opt.Progress(islands[0].gen, islands[best].parentFit)
		}
	}

	best := 0
	for i := 1; i < k; i++ {
		if islands[i].parentFit.Better(islands[best].parentFit) {
			best = i
		}
	}
	var tel Telemetry
	gens := 0
	for _, e := range islands {
		tel.Add(e.tel)
		if e.gen > gens {
			gens = e.gen
		}
	}
	tel.Migrations = migrations
	tel.MigrationsAccepted = accepted
	if reason == "" {
		reason = StopGenerations
	}
	tel.StopReason = reason
	tel.Elapsed = time.Since(start)
	if opt.Metrics != nil {
		opt.Metrics.Counter("cgp.migrations").Add(migrations)
		opt.Metrics.Counter("cgp.migrations_accepted").Add(accepted)
	}
	res := &Result{
		Best:        islands[best].parent.net.Shrink(),
		Fitness:     islands[best].parentFit,
		Generations: gens,
		Evaluations: tel.Evaluations,
		Improved:    int(tel.Improvements),
		Elapsed:     tel.Elapsed,
		Telemetry:   tel,
	}
	if opt.Trace != nil {
		opt.Trace.Emit("cgp.done", map[string]any{
			"gens": res.Generations, "evals": res.Evaluations,
			"islands": k, "migrations": migrations, "accepted": accepted,
			"gates": res.Fitness.Gates, "garbage": res.Fitness.Garbage,
		})
	}
	return res, nil
}

// runEpoch advances every island by step generations on par goroutines,
// which take the islands in island order. Islands meet only at the
// barrier, so which goroutine runs an island does not change its result.
func runEpoch(ctx context.Context, islands []*engine, step, par int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(islands)); i = next.Add(1) - 1 {
				islands[i].run(ctx, step)
			}
		}()
	}
	wg.Wait()
}

// cexKey renders a counterexample as a map key for deduplication.
func cexKey(cex []bool) string {
	b := make([]byte, len(cex))
	for i, v := range cex {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
