package rcgp

// Design-choice benchmarks of the RCGP search. The paper's Table 1 and
// Table 2 rows come from cmd/rcgp-tables alone; this file holds:
//
//   - BenchmarkAblation* — the design-choice ablations DESIGN.md calls
//     out: shrink policy, mutation rate, offspring count, optimizer, and
//     the initialization front end;
//   - BenchmarkParallelEvaluation — worker-pool scaling of the (1+λ)
//     engine on hwb8.
//
// Results are reported via b.ReportMetric (gates and, where relevant,
// evaluations per second), so `go test -bench Ablation -benchtime 1x`
// prints them alongside timing. Budgets are laptop-scale.

import (
	"fmt"
	"testing"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/flow"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// benchGenerations keeps `go test -bench=.` under a few minutes while
// still showing real reductions.
const benchGenerations = 20000

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationShrink compares shrinking the chromosome on every
// improvement (smaller search space) against shrinking only at the end
// (more neutral-drift material), the trade-off discussed in §3.2.3.
func BenchmarkAblationShrink(b *testing.B) {
	c := bench.Decoder(2)
	for _, mode := range []struct {
		name   string
		shrink bool
	}{{"end-only", false}, {"on-improve", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var gates float64
			for i := 0; i < b.N; i++ {
				res, err := flow.RunTables(c.Tables, flow.Options{
					CGP: core.Options{
						Generations:     benchGenerations,
						MutationRate:    0.15,
						Seed:            1,
						ShrinkOnImprove: mode.shrink,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				gates = float64(res.FinalStats.Gates)
			}
			b.ReportMetric(gates, "gates")
		})
	}
}

// BenchmarkAblationMutationRate sweeps μ, including the paper's μ = 1.
func BenchmarkAblationMutationRate(b *testing.B) {
	c := bench.Graycode(4)
	for _, mu := range []float64{0.05, 0.15, 0.5, 1.0} {
		mu := mu
		b.Run(muName(mu), func(b *testing.B) {
			var gates float64
			for i := 0; i < b.N; i++ {
				res, err := flow.RunTables(c.Tables, flow.Options{
					CGP: core.Options{Generations: benchGenerations, MutationRate: mu, Seed: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				gates = float64(res.FinalStats.Gates)
			}
			b.ReportMetric(gates, "gates")
		})
	}
}

func muName(mu float64) string {
	switch mu {
	case 0.05:
		return "mu=0.05"
	case 0.15:
		return "mu=0.15"
	case 0.5:
		return "mu=0.50"
	default:
		return "mu=1.00"
	}
}

// BenchmarkAblationLambda sweeps the offspring count of the (1+λ) ES at a
// fixed evaluation budget, so more offspring per generation means fewer
// generations.
func BenchmarkAblationLambda(b *testing.B) {
	c := bench.Ham3()
	const evalBudget = 4 * benchGenerations
	for _, lambda := range []int{1, 4, 16} {
		lambda := lambda
		b.Run(lambdaName(lambda), func(b *testing.B) {
			var gates float64
			for i := 0; i < b.N; i++ {
				res, err := flow.RunTables(c.Tables, flow.Options{
					CGP: core.Options{
						Generations:  evalBudget / lambda,
						Lambda:       lambda,
						MutationRate: 0.15,
						Seed:         1,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				gates = float64(res.FinalStats.Gates)
			}
			b.ReportMetric(gates, "gates")
		})
	}
}

func lambdaName(l int) string {
	switch l {
	case 1:
		return "lambda=1"
	case 4:
		return "lambda=4"
	default:
		return "lambda=16"
	}
}

// BenchmarkAblationOptimizer pits the paper's (1+λ) evolutionary strategy
// against simulated annealing over the identical chromosome, mutation
// operators, and evaluation budget.
func BenchmarkAblationOptimizer(b *testing.B) {
	c := bench.Decoder(2)
	build := func() (*cec.Spec, *rqfp.Netlist) {
		a := aig.FromTruthTables(c.Tables).Optimize(aig.EffortStd)
		n, err := rqfp.FromMIG(mig.ResynthesizeAIG(a))
		if err != nil {
			b.Fatal(err)
		}
		return cec.NewSpecFromAIG(a, 0, 1), n
	}
	const evals = 4 * benchGenerations
	b.Run("cgp-1+4", func(b *testing.B) {
		var gates float64
		for i := 0; i < b.N; i++ {
			spec, n := build()
			res, err := core.Optimize(n, spec, core.Options{
				Generations: evals / 4, MutationRate: 0.15, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			gates = float64(res.Fitness.Gates)
		}
		b.ReportMetric(gates, "gates")
	})
	b.Run("anneal", func(b *testing.B) {
		var gates float64
		for i := 0; i < b.N; i++ {
			spec, n := build()
			res, err := core.Anneal(n, spec, core.AnnealOptions{
				Steps: evals, MutationRate: 0.15, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			gates = float64(res.Fitness.Gates)
		}
		b.ReportMetric(gates, "gates")
	})
}

// BenchmarkParallelEvaluation measures the worker-pool scaling of the
// (1+λ) engine on an 8-input circuit (hwb8): same seed, same generation
// budget, 1/2/4/8 evaluation workers. The evals/sec metric comes from the
// run's own telemetry; the gates metric doubles as the determinism witness
// (it must not move with the worker count).
func BenchmarkParallelEvaluation(b *testing.B) {
	c := bench.HWB(8)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var last *flow.Result
			for i := 0; i < b.N; i++ {
				res, err := flow.RunTables(c.Tables, flow.Options{
					CGP: core.Options{
						Generations:  benchGenerations / 4,
						Lambda:       8,
						MutationRate: 0.15,
						Seed:         1,
						Workers:      workers,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.CGP.Telemetry.EvalsPerSec(), "evals/sec")
			b.ReportMetric(float64(last.FinalStats.Gates), "gates")
		})
	}
}

// BenchmarkAblationInitialization compares the conversion front ends: the
// direct AND-by-AND AIG→MIG conversion against majority-cut mapping.
func BenchmarkAblationInitialization(b *testing.B) {
	c := bench.FullAdder()
	b.Run("flow-default", func(b *testing.B) {
		var gates float64
		for i := 0; i < b.N; i++ {
			res, err := flow.RunTables(c.Tables, flow.Options{SkipCGP: true})
			if err != nil {
				b.Fatal(err)
			}
			gates = float64(res.InitialStats.Gates)
		}
		b.ReportMetric(gates, "initGates")
	})
}
