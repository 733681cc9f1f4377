package flow

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// TestOptimizerWorkersDeterminism checks the end-to-end determinism
// contract for every search engine: on the same seed, every worker count
// must produce a bit-identical final circuit, fitness and search telemetry
// to Workers = 1. The annealer is inherently sequential (Workers only
// affects the CGP phases), but it still runs through the shared Evaluator
// path, so all three optimizers are covered. The hwb8 case runs a
// 1,686-gate genome at a mutation rate low enough for the search to
// improve it, so the worker counts are compared on a circuit that changes.
func TestOptimizerWorkersDeterminism(t *testing.T) {
	decoder := bench.Decoder(2).Tables
	decoderCGP := core.Options{Generations: 2000, Lambda: 8, MutationRate: 0.15, Seed: 11}
	cases := []struct {
		name, optimizer string
		tables          []tt.TT
		cgp             core.Options
		workers         []int
	}{
		{"cgp", "cgp", decoder, decoderCGP, []int{1, 8}},
		{"anneal", "anneal", decoder, decoderCGP, []int{1, 8}},
		{"hybrid", "hybrid", decoder, decoderCGP, []int{1, 8}},
		{"hwb8", "cgp", bench.HWB(8).Tables, core.Options{Generations: 200, Lambda: 8, MutationRate: 0.002, Seed: 1}, []int{1, 2, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) *Result {
				opt := tc.cgp
				opt.Workers = workers
				res, err := RunTables(tc.tables, Options{Optimizer: tc.optimizer, CGP: opt})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq := run(tc.workers[0])
			if seq.CGP.Telemetry.Improvements == 0 {
				t.Fatal("the search never improved the circuit")
			}
			for _, workers := range tc.workers[1:] {
				par := run(workers)
				if seq.CGP.Fitness != par.CGP.Fitness {
					t.Fatalf("fitness diverged: Workers=1 %+v, Workers=%d %+v", seq.CGP.Fitness, workers, par.CGP.Fitness)
				}
				if seq.Final.String() != par.Final.String() {
					t.Fatalf("final circuits diverged between Workers=1 and Workers=%d", workers)
				}
				if seq.FinalStats != par.FinalStats {
					t.Fatalf("final stats diverged: %+v vs %+v", seq.FinalStats, par.FinalStats)
				}
				s, p := seq.CGP.Telemetry, par.CGP.Telemetry
				if s.Evaluations != p.Evaluations || s.Improvements != p.Improvements {
					t.Fatalf("Workers=1 made %d evaluations and %d improvements, Workers=%d %d and %d",
						s.Evaluations, s.Improvements, workers, p.Evaluations, p.Improvements)
				}
			}
		})
	}
}

// TestRunContextCancelledMidRun verifies the wind-down path: cancelling
// the context during the evolution still yields a validated best-so-far
// result, with the stop reason recorded.
func TestRunContextCancelledMidRun(t *testing.T) {
	c := bench.Decoder(2)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := RunContext(ctx, aig.FromTruthTables(c.Tables), Options{
		CGP: core.Options{
			Generations:  1 << 30, // far beyond the deadline
			MutationRate: 0.15,
			Seed:         5,
			Workers:      4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CGP == nil {
		t.Fatal("no CGP report")
	}
	if got := res.CGP.Telemetry.StopReason; got != core.StopCanceled && got != core.StopDeadline {
		t.Fatalf("StopReason = %q, want canceled or deadline", got)
	}
	if res.Final == nil || res.Final.Validate() != nil {
		t.Fatal("cancelled run did not return a valid circuit")
	}
}

// TestHybridRunLeavesNoHelpers counts goroutines around a hybrid run: its
// CGP half starts helper goroutines, which must be running during the
// search and gone once the run returns, and the run must repeat the
// Workers 1 run.
func TestHybridRunLeavesNoHelpers(t *testing.T) {
	run := func(workers int, progress func(int, core.Fitness)) *Result {
		res, err := RunTables(bench.Decoder(2).Tables, Options{Optimizer: "hybrid", CGP: core.Options{
			Generations: 600, Lambda: 8, MutationRate: 0.15, Seed: 11, Workers: workers,
			ProgressEvery: 50, Progress: progress,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1, nil)
	base := runtime.NumGoroutine()
	running := 0
	got := run(4, func(int, core.Fitness) { running = max(running, runtime.NumGoroutine()-base) })
	if running < 3 {
		t.Fatalf("%d goroutines above the baseline during the CGP half, want at least 3 helpers", running)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the hybrid run left %d goroutines running, %d before it", runtime.NumGoroutine(), base)
		}
	}
	if got.Final.String() != want.Final.String() || got.CGP.Fitness != want.CGP.Fitness {
		t.Fatal("Workers=4 evolved another circuit than Workers=1")
	}
	tg, tw := got.CGP.Telemetry, want.CGP.Telemetry
	tg.Elapsed, tw.Elapsed = 0, 0
	if tg != tw {
		t.Fatalf("telemetry diverged between Workers=4 and Workers=1:\n%+v\n%+v", tg, tw)
	}
}
