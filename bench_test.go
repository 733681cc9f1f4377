package rcgp

// Benchmark harness regenerating the RCGP paper's evaluation artifacts:
//
//   - BenchmarkTable1/<circuit> — one benchmark per Table 1 row (small
//     RevLib circuits): initialization baseline vs RCGP, with the exact
//     baseline on the circuits where it terminates quickly.
//   - BenchmarkTable2/<circuit> — one benchmark per Table 2 row (large
//     RevLib circuits + reversible reciprocal circuits).
//   - BenchmarkAblation* — the design-choice ablations DESIGN.md calls
//     out: shrink policy, mutation rate, offspring count, and the
//     equivalence-oracle configuration.
//
// Rows are reported via b.ReportMetric (gates, garbage, JJs, depth and the
// reduction vs initialization), so `go test -bench Table -benchmem`
// prints the table data alongside timing. Budgets are laptop-scale; see
// EXPERIMENTS.md for the scaled-up runs.

import (
	"fmt"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/exact"
	"github.com/reversible-eda/rcgp/internal/flow"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// benchGenerations keeps `go test -bench=.` under a few minutes while
// still showing real reductions. cmd/rcgp-tables raises this.
const benchGenerations = 20000

func reportRow(b *testing.B, res *flow.Result) {
	b.ReportMetric(float64(res.FinalStats.Gates), "gates")
	b.ReportMetric(float64(res.FinalStats.Garbage), "garbage")
	b.ReportMetric(float64(res.FinalStats.JJs), "JJs")
	b.ReportMetric(float64(res.FinalStats.Depth), "depth")
	b.ReportMetric(float64(res.FinalStats.Buffers), "buffers")
	if res.InitialStats.Gates > 0 {
		b.ReportMetric(100*(1-float64(res.FinalStats.Gates)/float64(res.InitialStats.Gates)), "gateRed%")
	}
	if res.InitialStats.Garbage > 0 {
		b.ReportMetric(100*(1-float64(res.FinalStats.Garbage)/float64(res.InitialStats.Garbage)), "garbRed%")
	}
}

func benchCircuit(b *testing.B, c bench.Circuit, generations int) {
	b.ReportAllocs()
	var last *flow.Result
	for i := 0; i < b.N; i++ {
		res, err := flow.RunTables(c.Tables, flow.Options{
			CGP: core.Options{
				Generations:  generations,
				MutationRate: 0.15,
				Seed:         1,
				TimeBudget:   time.Minute,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportRow(b, last)
}

func BenchmarkTable1(b *testing.B) {
	for _, c := range bench.Table1() {
		c := c
		b.Run(c.Name, func(b *testing.B) { benchCircuit(b, c, benchGenerations) })
	}
}

func BenchmarkTable2(b *testing.B) {
	for _, c := range bench.Table2() {
		c := c
		gens := benchGenerations
		if c.NumPI >= 8 {
			gens = benchGenerations / 4 // keep the big rows affordable
		}
		b.Run(c.Name, func(b *testing.B) { benchCircuit(b, c, gens) })
	}
}

// BenchmarkTable1Exact regenerates the exact-synthesis columns on the
// circuits where the method terminates within a laptop budget; the others
// reproduce the paper's "\" timeout marker (reported as gates = -1).
func BenchmarkTable1Exact(b *testing.B) {
	for _, c := range []bench.Circuit{bench.FullAdder(), bench.Gt10(), bench.Decoder(2)} {
		c := c
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			var gates, garbage float64 = -1, -1
			for i := 0; i < b.N; i++ {
				res, err := exact.Synthesize(c.Tables, exact.Options{
					MaxGates:   3,
					TimeBudget: time.Minute,
				})
				switch err {
				case nil:
					gates = float64(res.Gates)
					garbage = float64(res.Garbage)
				case exact.ErrTimeout, exact.ErrUnsat:
					gates, garbage = -1, -1
				default:
					b.Fatal(err)
				}
			}
			b.ReportMetric(gates, "gates")
			b.ReportMetric(garbage, "garbage")
		})
	}
}

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
