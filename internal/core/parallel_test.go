package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

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

// A search canceled as it starts closes its engine before the worker
// goroutines first run; they must neither race with close nor index the
// start channels close has already cleared.
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
