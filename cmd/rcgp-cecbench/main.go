// Command rcgp-cecbench measures the equivalence-check verdict path and
// writes the record the repository tracks as results/BENCH_cec.json: the
// p50/p99 latency of proving and refuting benchmark-class miters with the
// single authority CDCL engine (legacy) versus the racing prover portfolio,
// with a verdict cross-check between the two modes. With -identity it
// instead runs the full synthesis flow over the built-in benchmark suite
// with the portfolio off and on and fails unless every evolved circuit is
// bit-identical — the determinism witness CI runs.
//
// Usage:
//
//	rcgp-cecbench -bench hwb8 -reps 40 -o results/BENCH_cec.json
//	rcgp-cecbench -identity -gens 300 -seed 7
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/buildinfo"
	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/flow"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// modeStats is one mode's latency record over the shared query workload.
type modeStats struct {
	Mode    string  `json:"mode"` // "legacy" or "portfolio"
	Provers int     `json:"provers"`
	Queries int     `json:"queries"`
	Proved  int     `json:"proved"`
	Refuted int     `json:"refuted"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
	TotalMS float64 `json:"total_ms"`
}

type report struct {
	Benchmark  string           `json:"benchmark"`
	Inputs     int              `json:"inputs"`
	Reps       int              `json:"reps"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"numcpu"`
	Modes      []modeStats      `json:"modes"`
	Engines    []cec.EngineStat `json:"engines"` // the portfolio mode's racing record
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "rcgp-cecbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		benchName = flag.String("bench", "hwb8", "benchmark circuit for the latency workload (see rcgp -list)")
		reps      = flag.Int("reps", 40, "queries per mode (a 2:1 mix of equivalence proofs and refutations)")
		provers   = flag.Int("provers", 2, "portfolio roster size for the racing mode (2 races the BDD prover beside the authority)")
		bddBudget = flag.Int("bdd-budget", 0, "node budget of the portfolio's BDD prover (0 = default)")
		outPath   = flag.String("o", "results/BENCH_cec.json", "output JSON path (latency mode)")
		identity  = flag.Bool("identity", false, "run the portfolio on/off determinism sweep over the benchmark suite instead")
		gens      = flag.Int("gens", 300, "CGP generation budget per run (identity mode)")
		seed      = flag.Int64("seed", 1, "random seed (identity mode)")
		version   = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("rcgp-cecbench"))
		return nil
	}
	if *identity {
		return runIdentity(*gens, *seed, *provers, *bddBudget)
	}
	return runLatency(*benchName, *reps, *provers, *bddBudget, *outPath)
}

// query is one miter of the shared workload: a candidate netlist and the
// verdict every mode must reach for it.
type query struct {
	net  *rqfp.Netlist
	want cec.Outcome
}

// buildQueries derives the workload from the benchmark: the specification
// re-synthesized through the MIG mapper (an equivalence proof — the UNSAT
// miter, the expensive case) interleaved with single-output corruptions of
// it (refutations). Deterministic: no randomness is drawn.
func buildQueries(spec *aig.AIG, reps int) ([]query, error) {
	base, err := rqfp.FromMIG(mig.FromAIG(spec))
	if err != nil {
		return nil, err
	}
	queries := make([]query, 0, reps)
	for i := 0; i < reps; i++ {
		if i%3 == 2 {
			wrong := base.Clone()
			wrong.POs[i%len(wrong.POs)] = rqfp.ConstPort
			queries = append(queries, query{net: wrong, want: cec.OutcomeNotEquivalent})
		} else {
			queries = append(queries, query{net: base, want: cec.OutcomeEquivalent})
		}
	}
	return queries, nil
}

func runLatency(benchName string, reps, provers, bddBudget int, outPath string) error {
	c, err := bench.ByName(benchName)
	if err != nil {
		return err
	}
	spec := aig.FromTruthTables(c.Tables)
	queries, err := buildQueries(spec, reps)
	if err != nil {
		return err
	}

	rep := report{
		Benchmark:  c.Name,
		Inputs:     c.NumPI,
		Reps:       reps,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	modes := []modeStats{
		{Mode: "legacy", Provers: 1},
		{Mode: "portfolio", Provers: provers},
	}
	for mi := range modes {
		m := &modes[mi]
		pf := cec.NewPortfolio(spec, cec.PortfolioConfig{Provers: m.Provers, BDDBudget: bddBudget})
		lat := make([]time.Duration, 0, len(queries))
		var total time.Duration
		for qi, q := range queries {
			start := time.Now()
			res := pf.Prove(context.Background(), q.net)
			d := time.Since(start)
			if res.Outcome != q.want {
				return fmt.Errorf("%s query %d: got %s, want %s — the modes disagree with the specification",
					m.Mode, qi, res.Outcome, q.want)
			}
			switch res.Outcome {
			case cec.OutcomeEquivalent:
				m.Proved++
			case cec.OutcomeNotEquivalent:
				m.Refuted++
			}
			lat = append(lat, d)
			total += d
		}
		m.Queries = len(queries)
		m.P50MS = percentileMS(lat, 50)
		m.P99MS = percentileMS(lat, 99)
		m.TotalMS = float64(total.Microseconds()) / 1e3
		if m.Mode == "portfolio" {
			rep.Engines = pf.Engines()
		}
		fmt.Printf("%-10s provers=%d  p50 %.3fms  p99 %.3fms  total %.1fms  (%d proved, %d refuted)\n",
			m.Mode, m.Provers, m.P50MS, m.P99MS, m.TotalMS, m.Proved, m.Refuted)
	}
	rep.Modes = modes

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// percentileMS is the nearest-rank percentile of the latency sample, in
// milliseconds.
func percentileMS(lat []time.Duration, p int) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	return float64(s[(len(s)-1)*p/100].Microseconds()) / 1e3
}

// runIdentity evolves every built-in benchmark twice with the same seed —
// portfolio off, then racing `provers` engines — and fails unless the final
// circuits are bit-identical. Racing must never change a verdict, so it
// must never change a trajectory.
func runIdentity(gens int, seed int64, provers, bddBudget int) error {
	bad := 0
	for _, c := range bench.All() {
		var finals []string
		for _, p := range []int{1, provers} {
			res, err := flow.RunTables(c.Tables, flow.Options{
				CGP: core.Options{
					Generations:  gens,
					Lambda:       8,
					MutationRate: 0.1,
					Seed:         seed,
					Workers:      1,
				},
				CECPortfolio: p,
				CECBDDBudget: bddBudget,
			})
			if err != nil {
				return fmt.Errorf("%s (provers=%d): %w", c.Name, p, err)
			}
			finals = append(finals, res.Final.String())
		}
		if finals[0] != finals[1] {
			fmt.Printf("FAIL %-20s portfolio changed the evolved circuit\n", c.Name)
			bad++
			continue
		}
		fmt.Printf("ok   %-20s identical with 1 and %d provers\n", c.Name, provers)
	}
	if bad > 0 {
		return fmt.Errorf("%d benchmark(s) diverged under portfolio racing", bad)
	}
	return nil
}
