package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// Determinism contract of the parallel engine: for any Workers value the
// run is bit-identical to the sequential one on the same seed, because the
// coordinator pre-draws every offspring's RNG stream and reduces results
// in offspring order. These tests are the -race regression suite for that
// contract.

func optimizeCombined(t *testing.T, workers, islands int, full bool) *Result {
	t.Helper()
	spec, n := buildCase(decoderTables())
	return optimizeWith(t, n, spec, full, Options{
		Generations:  1500,
		Lambda:       8,
		MutationRate: 0.15,
		Seed:         42,
		Workers:      workers,
		Islands:      islands,
		MigrateEvery: 250,
	})
}

func optimizeWithWorkers(t *testing.T, workers, islands int) *Result {
	t.Helper()
	return optimizeCombined(t, workers, islands, false)
}

func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	want := optimizeWithWorkers(t, 1, 1)
	for _, workers := range []int{2, 4, 8} {
		got := optimizeWithWorkers(t, workers, 1)
		if got.Fitness != want.Fitness {
			t.Fatalf("Workers=%d fitness %+v != Workers=1 fitness %+v", workers, got.Fitness, want.Fitness)
		}
		if got.Best.String() != want.Best.String() {
			t.Fatalf("Workers=%d evolved a different circuit than Workers=1", workers)
		}
		if got.Evaluations != want.Evaluations {
			t.Fatalf("Workers=%d evaluations %d != %d", workers, got.Evaluations, want.Evaluations)
		}
	}
}

func TestIslandDeterministicPerSeed(t *testing.T) {
	a := optimizeWithWorkers(t, 4, 3)
	b := optimizeWithWorkers(t, 4, 3)
	if a.Fitness != b.Fitness || a.Best.String() != b.Best.String() {
		t.Fatalf("island runs on the same seed diverged: %+v vs %+v", a.Fitness, b.Fitness)
	}
	ta, tb := a.Telemetry, b.Telemetry
	ta.Elapsed, tb.Elapsed = 0, 0 // only the wall clock may differ
	if ta != tb {
		t.Fatalf("island telemetry diverged:\n%+v\n%+v", ta, tb)
	}
	// Worker split must not affect the island trajectories either.
	c := optimizeWithWorkers(t, 1, 3)
	if c.Fitness != a.Fitness || c.Best.String() != a.Best.String() {
		t.Fatalf("island run with different worker split diverged: %+v vs %+v", c.Fitness, a.Fitness)
	}
}

// TestCombinedModesDeterminism exercises every parallel feature at once —
// a worker pool, an island ring, and incremental (dirty-cone) evaluation —
// and demands the exact trajectory of the plain sequential full-evaluation
// run of the same island topology. This is the strongest form of the
// determinism contract: batch dispatch, per-worker oracle views, resident
// parent re-syncs, and migration barriers may not leak into the result.
// Run under -race it also stresses the lock-free snapshot protocol.
func TestCombinedModesDeterminism(t *testing.T) {
	base := optimizeCombined(t, 1, 3, true)
	if tel := base.Telemetry; tel.FullEvals != tel.Evaluations {
		t.Fatalf("reference run left the full path: FullEvals %d != Evaluations %d", tel.FullEvals, tel.Evaluations)
	}
	combined := optimizeCombined(t, 8, 3, false)
	if combined.Fitness != base.Fitness {
		t.Fatalf("combined-mode fitness %+v != sequential full-eval fitness %+v", combined.Fitness, base.Fitness)
	}
	if combined.Best.String() != base.Best.String() {
		t.Fatalf("combined mode evolved a different circuit than the sequential full-eval run")
	}
	if combined.Evaluations != base.Evaluations {
		t.Fatalf("combined-mode evaluations %d != %d", combined.Evaluations, base.Evaluations)
	}
	// The incremental path must actually have carried the run, not fallen
	// back to full evaluation.
	if tel := combined.Telemetry; tel.IncrementalEvals+tel.DedupSkips == 0 {
		t.Fatal("combined run never took the incremental path")
	}
	// And the whole thing must be repeatable bit-for-bit, telemetry splits
	// included.
	again := optimizeCombined(t, 8, 3, false)
	ta, tb := combined.Telemetry, again.Telemetry
	ta.Elapsed, tb.Elapsed = 0, 0 // only the wall clock may differ
	if ta != tb {
		t.Fatalf("combined-mode telemetry diverged between identical runs:\n%+v\n%+v", ta, tb)
	}
	if again.Best.String() != combined.Best.String() {
		t.Fatal("combined-mode circuit diverged between identical runs")
	}
}

// buildWideCase builds a 16-input spec — above the exhaustive limit, so
// every surviving candidate goes through the SAT miter — plus its
// equivalent-by-construction initial netlist.
func buildWideCase() (*cec.Spec, *rqfp.Netlist) {
	r := rand.New(rand.NewSource(31))
	a := aig.New(16)
	edges := []aig.Lit{aig.Const0}
	for i := 0; i < 16; i++ {
		edges = append(edges, a.PI(i))
	}
	for i := 0; i < 60; i++ {
		x := edges[r.Intn(len(edges))].NotIf(r.Intn(2) == 1)
		y := edges[r.Intn(len(edges))].NotIf(r.Intn(2) == 1)
		edges = append(edges, a.And(x, y))
	}
	for i := 0; i < 3; i++ {
		a.AddPO(edges[r.Intn(len(edges))].NotIf(r.Intn(2) == 1))
	}
	n, err := rqfp.FromMIG(mig.FromAIG(a))
	if err != nil {
		panic(err)
	}
	return cec.NewSpecFromAIG(a, 4, 7), n
}

// buildComparatorCase builds, like buildWideCase, a 16-input spec and its
// initial netlist: a > b and a == b over two 8-bit operands. Both outputs
// hinge on long conjunctions that random patterns rarely satisfy, so some
// offspring that pass the screen are refuted only by SAT.
func buildComparatorCase() (*cec.Spec, *rqfp.Netlist) {
	a := aig.New(16)
	gt, eq := aig.Const0, aig.Const1
	for k := 0; k < 8; k++ { // least significant bit first
		x, y := a.PI(k), a.PI(8+k)
		same := a.Xor(x, y).Not()
		gt = a.Or(a.And(x, y.Not()), a.And(same, gt))
		eq = a.And(same, eq)
	}
	a.AddPO(gt)
	a.AddPO(eq)
	n, err := rqfp.FromMIG(mig.FromAIG(a))
	if err != nil {
		panic(err)
	}
	return cec.NewSpecFromAIG(a, 4, 7), n
}

func optimizeWide(t *testing.T, workers int) *Result {
	t.Helper()
	spec, n := buildWideCase()
	res, err := Optimize(n, spec, Options{
		Generations:  400,
		Lambda:       8,
		MutationRate: 0.1,
		Seed:         42,
		Workers:      workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := spec.Stats(); st.SATProved+st.SATRefuted == 0 {
		t.Fatal("run never reached the SAT miter (no SAT verdicts)")
	}
	return res
}

// TestWideSpecDeterministicAcrossWorkers extends the worker determinism
// contract to a SAT-regime spec, where every candidate that survives the
// random-pattern screen is confirmed by a SAT proof: 1 vs 4 workers on the
// same seed must evolve the bit-identical final netlist with identical
// telemetry eval splits. The other determinism tests use exhaustive specs,
// which never reach SAT. Under -race it also stresses concurrent SAT checks
// against the search's own goroutines.
func TestWideSpecDeterministicAcrossWorkers(t *testing.T) {
	base := optimizeWide(t, 1)
	par := optimizeWide(t, 4)
	if par.Fitness != base.Fitness {
		t.Fatalf("4 workers changed the fitness: %+v != %+v", par.Fitness, base.Fitness)
	}
	if par.Best.String() != base.Best.String() {
		t.Fatal("4 workers evolved a different circuit than 1 worker")
	}
	if par.Evaluations != base.Evaluations {
		t.Fatalf("4 workers changed the evaluation count: %d != %d", par.Evaluations, base.Evaluations)
	}
	ta, tb := base.Telemetry, par.Telemetry
	ta.Elapsed, tb.Elapsed = 0, 0 // only the wall clock may differ
	if ta != tb {
		t.Fatalf("telemetry eval splits diverged:\n%+v\n%+v", ta, tb)
	}
}

func TestIslandMigrationSchedule(t *testing.T) {
	// 1500 generations at MigrateEvery=250 is 6 epochs, so 5 migration
	// rounds of 3 transfers each (no migration after the final epoch).
	res := optimizeWithWorkers(t, 2, 3)
	if want := int64(5 * 3); res.Telemetry.Migrations != want {
		t.Fatalf("Migrations = %d, want %d", res.Telemetry.Migrations, want)
	}
	if res.Telemetry.MigrationsAccepted > res.Telemetry.Migrations {
		t.Fatalf("accepted %d > attempted %d", res.Telemetry.MigrationsAccepted, res.Telemetry.Migrations)
	}
	if res.Telemetry.StopReason != StopGenerations {
		t.Fatalf("StopReason = %q, want %q", res.Telemetry.StopReason, StopGenerations)
	}
}

// gid parses the current goroutine's id out of the runtime stack header —
// test-only introspection to pin down which goroutine ran a callback.
func gid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	if i := bytes.IndexByte(buf, ' '); i >= 0 {
		buf = buf[:i]
	}
	return string(buf)
}

// TestProgressSingleGoroutine enforces the documented callback contract:
// even with Workers > 1, Progress is only ever invoked from the engine
// coordinator, so every call must come from one goroutine and never
// concurrently. Run under -race this also catches unsynchronized access
// to the callback's state.
func TestProgressSingleGoroutine(t *testing.T) {
	spec, n := buildCase(decoderTables())
	var owner string
	calls := 0
	_, err := Optimize(n, spec, Options{
		Generations:   400,
		Lambda:        8,
		MutationRate:  0.15,
		Seed:          7,
		Workers:       8,
		ProgressEvery: 50,
		Progress: func(gen int, best Fitness) {
			// Unsynchronized on purpose: concurrent calls would be a
			// data race here and fail under -race.
			calls++
			if owner == "" {
				owner = gid()
			} else if g := gid(); g != owner {
				t.Errorf("Progress called from goroutine %s, first call was on %s", g, owner)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Progress never called")
	}
}

// A search canceled as it starts closes its engine before the helper
// goroutines first run; they must neither race with close nor miss the
// round that tells them to quit.
func TestEngineCloseBeforeWorkersRun(t *testing.T) {
	spec, n := buildCase(decoderTables())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		if _, err := OptimizeContext(ctx, n, spec, Options{Generations: 100, Lambda: 8, Workers: 8, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// concurrencyProbe wraps the production evaluator; all forks share one
// count of EvaluateDelta calls in flight and the most seen at once.
type concurrencyProbe struct {
	*SpecEvaluator
	inFlight, peak *atomic.Int64
}

func (p concurrencyProbe) EvaluateDelta(ctx context.Context, n *rqfp.Netlist, d Delta) Outcome {
	now := p.inFlight.Add(1)
	defer p.inFlight.Add(-1)
	for old := p.peak.Load(); now > old && !p.peak.CompareAndSwap(old, now); old = p.peak.Load() {
	}
	runtime.Gosched() // let another goroutine's evaluation overlap this one
	return p.SpecEvaluator.EvaluateDelta(ctx, n, d)
}

func (p concurrencyProbe) Fork() Evaluator {
	return concurrencyProbe{p.SpecEvaluator.Fork().(*SpecEvaluator), p.inFlight, p.peak}
}

// TestIslandsRespectWorkers bounds the island model by Workers: with
// fewer workers than islands, no more than Workers offspring are ever
// evaluated at once, and the run evolves the same circuit with the same
// telemetry as one with a goroutine per island.
func TestIslandsRespectWorkers(t *testing.T) {
	for _, c := range []struct{ islands, workers int }{{4, 1}, {3, 2}} {
		run := func(workers int, ev Evaluator, spec *cec.Spec, n *rqfp.Netlist) *Result {
			res, err := optimize(context.Background(), n, ev, Options{
				Generations: 600, Lambda: 8, MutationRate: 0.15, Seed: 42,
				Workers: workers, Islands: c.islands, MigrateEvery: 150,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		spec, n := buildCase(decoderTables())
		var inFlight, peak atomic.Int64
		got := run(c.workers, concurrencyProbe{NewSpecEvaluator(spec), &inFlight, &peak}, spec, n)
		if p := peak.Load(); p > int64(c.workers) {
			t.Fatalf("islands %d, workers %d: %d evaluations ran at once", c.islands, c.workers, p)
		}
		spec, n = buildCase(decoderTables())
		want := run(c.islands, NewSpecEvaluator(spec), spec, n)
		if got.Best.String() != want.Best.String() {
			t.Fatalf("islands %d: workers %d evolved another circuit than workers %d", c.islands, c.workers, c.islands)
		}
		tg, tw := got.Telemetry, want.Telemetry
		tg.Elapsed, tw.Elapsed = 0, 0
		if tg != tw {
			t.Fatalf("islands %d: telemetry diverged between workers %d and %d:\n%+v\n%+v", c.islands, c.workers, c.islands, tg, tw)
		}
	}
}

// sameRun fails t unless got repeats want exactly: the fitness, the final
// circuit, and every Telemetry count (only the wall clock may differ).
func sameRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Fitness != want.Fitness {
		t.Fatalf("%s: fitness %+v, want %+v", label, got.Fitness, want.Fitness)
	}
	if got.Best.String() != want.Best.String() {
		t.Fatalf("%s evolved another circuit", label)
	}
	tg, tw := got.Telemetry, want.Telemetry
	tg.Elapsed, tw.Elapsed = 0, 0
	if tg != tw {
		t.Fatalf("%s: telemetry diverged:\n%+v\n%+v", label, tg, tw)
	}
}

// decoderRun runs the decoder case with the options the determinism tests
// share, changed by set.
func decoderRun(t *testing.T, workers int, set func(*Options)) *Result {
	t.Helper()
	spec, n := buildCase(decoderTables())
	opt := Options{Generations: 300, Lambda: 8, MutationRate: 0.15, Seed: 42, Workers: workers}
	if set != nil {
		set(&opt)
	}
	return optimizeWith(t, n, spec, false, opt)
}

// TestParkedHelpersMatchOneWorker holds the coordinator between
// generations for longer than the spin budget, in a Progress callback at
// every generation, so that the helpers give up polling, park, and are
// woken through the gate's condition variable every generation.
func TestParkedHelpersMatchOneWorker(t *testing.T) {
	slow := func(o *Options) {
		o.ProgressEvery = 1
		o.Progress = func(int, Fitness) { time.Sleep(2 * spinBudget) }
	}
	want := decoderRun(t, 1, nil)
	for _, workers := range []int{2, 4} {
		sameRun(t, fmt.Sprintf("Workers=%d with parked helpers", workers), decoderRun(t, workers, slow), want)
	}
}

// TestWorkersAboveGOMAXPROCSMatchOneWorker runs four workers on one
// processor, where every gate wait parks at once instead of polling.
func TestWorkersAboveGOMAXPROCSMatchOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if spin := spinFor(4); spin != 0 {
		t.Fatalf("four workers on one processor poll for %v before they park", spin)
	}
	sameRun(t, "Workers=4 at GOMAXPROCS 1", decoderRun(t, 4, nil), decoderRun(t, 1, nil))
}

// cancelProbe wraps the production evaluator; the offspring evaluation
// that takes the count shared by all forks to at cancels the search's
// context, in the middle of a generation.
type cancelProbe struct {
	*SpecEvaluator
	calls  *atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (p cancelProbe) EvaluateDelta(ctx context.Context, n *rqfp.Netlist, d Delta) Outcome {
	if p.calls.Add(1) == p.at {
		p.cancel()
	}
	return p.SpecEvaluator.EvaluateDelta(ctx, n, d)
}

func (p cancelProbe) Fork() Evaluator {
	return cancelProbe{p.SpecEvaluator.Fork().(*SpecEvaluator), p.calls, p.at, p.cancel}
}

// TestNoHelperOutlivesItsSearch counts goroutines around runs that start
// helpers: a plain run, a run cancelled in the middle of a generation, and
// an island run. Each must have had its helpers running, must repeat the
// Workers 1 run, and must leave no goroutine behind.
func TestNoHelperOutlivesItsSearch(t *testing.T) {
	base := settledGoroutines()
	var running int
	watch := func(o *Options) {
		o.ProgressEvery = 50
		o.Progress = func(int, Fitness) { running = max(running, runtime.NumGoroutine()-base) }
	}
	check := func(what string, helpers int) {
		t.Helper()
		if running < helpers {
			t.Fatalf("%s: %d goroutines above the baseline during the search, want at least %d helpers", what, running, helpers)
		}
		running = 0
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s left %d goroutines running, %d before it", what, runtime.NumGoroutine(), base)
			}
		}
	}

	sameRun(t, "plain run at Workers=4", decoderRun(t, 4, watch), decoderRun(t, 1, nil))
	check("plain run", 3)

	cancelled := func(workers int, set func(*Options)) *Result {
		spec, n := buildCase(decoderTables())
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opt := Options{Generations: 300, Lambda: 8, MutationRate: 0.15, Seed: 42, Workers: workers}
		if set != nil {
			set(&opt)
		}
		// Offspring 4 of generation 100: every generation evaluates all
		// eight offspring, so the abandoned generation does not depend on
		// the worker count.
		probe := cancelProbe{NewSpecEvaluator(spec), new(atomic.Int64), 100*8 + 5, cancel}
		res, err := optimize(ctx, n, probe, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Telemetry.StopReason != StopCanceled || res.Generations != 100 {
			t.Fatalf("Workers=%d: stopped at generation %d for %q, want generation 100 for %q",
				workers, res.Generations, res.Telemetry.StopReason, StopCanceled)
		}
		return res
	}
	got, want := cancelled(4, watch), cancelled(1, nil)
	if got.Fitness != want.Fitness || got.Best.String() != want.Best.String() {
		t.Fatal("a run cancelled at Workers=4 kept another circuit than at Workers=1")
	}
	check("cancelled run", 3)

	islands := func(o *Options) { o.Islands, o.MigrateEvery = 2, 50 }
	sameRun(t, "island run at Workers=4", decoderRun(t, 4, func(o *Options) { islands(o); watch(o) }), decoderRun(t, 1, islands))
	check("island run", 2)
}

// settledGoroutines returns the goroutine count once goroutines that
// earlier tests left on their way out have exited.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestSlotsDoNotShareCacheLines checks the layout the slot padding is for:
// the state a worker writes into a slot for every offspring (the RNG and
// its source, the mutation counters, the outcome) lies on cache lines that
// no other slot's state touches, so two workers never write the same line.
func TestSlotsDoNotShareCacheLines(t *testing.T) {
	spec, n := buildCase(decoderTables())
	opt := Options{Lambda: 16, Workers: 2}.withDefaults()
	e, err := newEngine(newGenotype(n), NewSpecEvaluator(spec), opt, -1, spinFor(opt.Workers))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	owner := map[uintptr]int{}
	for i, s := range e.slots {
		for _, f := range []struct {
			name string
			at   unsafe.Pointer
			size uintptr
		}{
			{"RNG source", unsafe.Pointer(&s.src), unsafe.Sizeof(s.src)},
			{"RNG", unsafe.Pointer(&s.rng), unsafe.Sizeof(s.rng)},
			{"MutationStats", unsafe.Pointer(&s.stat), unsafe.Sizeof(s.stat)},
			{"outcome", unsafe.Pointer(&s.out), unsafe.Sizeof(s.out) + unsafe.Sizeof(s.done)},
		} {
			for line := uintptr(f.at) / cacheLine; line <= (uintptr(f.at)+f.size-1)/cacheLine; line++ {
				if j, ok := owner[line]; ok && j != i {
					t.Fatalf("slot %d's %s shares cache line %#x with slot %d", i, f.name, line*cacheLine, j)
				}
				owner[line] = i
			}
		}
	}
}
