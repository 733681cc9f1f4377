package flow

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/obs"
)

func TestRunAllTable1Circuits(t *testing.T) {
	for _, c := range bench.Table1() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			res, err := RunTables(c.Tables, Options{
				CGP: core.Options{Generations: 1500, Seed: 7},
			})
			if err != nil {
				t.Fatal(err)
			}
			// The optimized netlist must compute the spec exactly.
			got := res.Final.TruthTables()
			for i := range c.Tables {
				if !got[i].Equal(c.Tables[i]) {
					t.Fatalf("output %d wrong", i)
				}
			}
			if err := res.Final.Validate(); err != nil {
				t.Fatal(err)
			}
			// RCGP must never be worse than the initialization baseline in
			// the primary objectives.
			if res.FinalStats.Gates > res.InitialStats.Gates {
				t.Fatalf("gates grew: %d -> %d", res.InitialStats.Gates, res.FinalStats.Gates)
			}
			if res.FinalStats.Garbage > res.InitialStats.Garbage {
				t.Fatalf("garbage grew: %d -> %d", res.InitialStats.Garbage, res.FinalStats.Garbage)
			}
			t.Logf("%-18s init: n_r=%-3d n_b=%-3d JJ=%-5d n_g=%-3d | rcgp: n_r=%-3d n_b=%-3d JJ=%-5d n_g=%-3d",
				c.Name,
				res.InitialStats.Gates, res.InitialStats.Buffers, res.InitialStats.JJs, res.InitialStats.Garbage,
				res.FinalStats.Gates, res.FinalStats.Buffers, res.FinalStats.JJs, res.FinalStats.Garbage)
		})
	}
}

func TestSkipCGPIsBaseline(t *testing.T) {
	c := bench.Decoder(2)
	res, err := RunTables(c.Tables, Options{SkipCGP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CGP != nil {
		t.Fatal("CGP ran despite SkipCGP")
	}
	if res.FinalStats != res.InitialStats {
		t.Fatal("baseline stats differ from initial stats")
	}
}

func TestReductionOnDecoder(t *testing.T) {
	// With a modest budget the decoder must shed gates vs initialization
	// (the paper reduces 8 → 3; we accept any strict improvement here and
	// let the benchmark harness chase the full reduction).
	c := bench.Decoder(2)
	res, err := RunTables(c.Tables, Options{CGP: core.Options{Generations: 8000, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalStats.Gates >= res.InitialStats.Gates {
		t.Fatalf("no gate reduction: init %d, final %d", res.InitialStats.Gates, res.FinalStats.Gates)
	}
	if res.FinalStats.Garbage >= res.InitialStats.Garbage {
		t.Fatalf("no garbage reduction: init %d, final %d", res.InitialStats.Garbage, res.FinalStats.Garbage)
	}
}

func TestResubStage(t *testing.T) {
	c := bench.Decoder(2)
	res, err := RunTables(c.Tables, Options{
		CGP:   core.Options{Generations: 1000, Seed: 4},
		Resub: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Final.TruthTables()
	for i := range c.Tables {
		if !got[i].Equal(c.Tables[i]) {
			t.Fatalf("output %d wrong after resub stage", i)
		}
	}
	if res.FinalStats.Gates > res.InitialStats.Gates {
		t.Fatal("resub stage grew the netlist")
	}
}

func TestWindowStage(t *testing.T) {
	c := bench.Graycode(4)
	res, err := RunTables(c.Tables, Options{
		CGP:          core.Options{Generations: 500, Seed: 4},
		WindowRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Window == nil {
		t.Fatal("window report missing")
	}
	if res.Window.Rounds != 10 {
		t.Fatalf("window rounds = %d, want 10", res.Window.Rounds)
	}
	got := res.Final.TruthTables()
	for i := range c.Tables {
		if !got[i].Equal(c.Tables[i]) {
			t.Fatalf("output %d wrong after window stage", i)
		}
	}
}

func TestOptimizerVariants(t *testing.T) {
	c := bench.Decoder(2)
	for _, optName := range []string{"cgp", "anneal", "hybrid"} {
		res, err := RunTables(c.Tables, Options{
			Optimizer: optName,
			CGP:       core.Options{Generations: 2000, Seed: 5, MutationRate: 0.15},
		})
		if err != nil {
			t.Fatalf("%s: %v", optName, err)
		}
		got := res.Final.TruthTables()
		for i := range c.Tables {
			if !got[i].Equal(c.Tables[i]) {
				t.Fatalf("%s: output %d wrong", optName, i)
			}
		}
		// Every engine scores its offspring on the delta path, so the
		// dedup / incremental / full split covers every evaluation.
		tel := res.CGP.Telemetry
		if got := tel.DedupSkips + tel.IncrementalEvals + tel.FullEvals; got != tel.Evaluations || tel.IncrementalEvals == 0 {
			t.Fatalf("%s: split %d+%d+%d of %d evaluations", optName,
				tel.DedupSkips, tel.IncrementalEvals, tel.FullEvals, tel.Evaluations)
		}
		t.Logf("%-7s n_r=%d n_g=%d", optName, res.FinalStats.Gates, res.FinalStats.Garbage)
	}
	if _, err := RunTables(c.Tables, Options{Optimizer: "bogus"}); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
}

func TestWideCircuitUsesSATOracle(t *testing.T) {
	// 16 inputs: the oracle must fall back to random simulation plus SAT
	// confirmation, and the flow must still verify every stage.
	a := aig.New(16)
	var po aig.Lit = aig.Const0
	for i := 0; i < 16; i += 2 {
		po = a.Xor(po, a.And(a.PI(i), a.PI(i+1)))
	}
	a.AddPO(po)
	res, err := Run(a, Options{CGP: core.Options{Generations: 300, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Exhaustive {
		t.Fatal("16-input spec must not be exhaustive")
	}
	if res.FinalStats.Gates > res.InitialStats.Gates {
		t.Fatal("grew")
	}
}

func TestStageTimesAndTrace(t *testing.T) {
	c := bench.Decoder(2)
	var buf bytes.Buffer
	res, err := RunTables(c.Tables, Options{
		CGP:          core.Options{Generations: 500, Seed: 7},
		WindowRounds: 2,
		Resub:        true,
		Trace:        obs.NewTracer(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"flow.aig_opt", "flow.mig_resyn", "flow.convert", "flow.cgp", "flow.window", "flow.resub", "flow.buffer"}
	if len(res.StageTimes) != len(want) {
		t.Fatalf("stage times = %+v, want stages %v", res.StageTimes, want)
	}
	var sum time.Duration
	for i, st := range res.StageTimes {
		if st.Name != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, st.Name, want[i])
		}
		if st.Duration < 0 {
			t.Fatalf("negative stage duration: %+v", st)
		}
		sum += st.Duration
	}
	if sum > res.Runtime+50*time.Millisecond {
		t.Fatalf("stage sum %v exceeds runtime %v", sum, res.Runtime)
	}
	// CEC counters must cover every CGP evaluation that reached the oracle
	// (all but the phenotype-dedup skips) plus the per-stage verification
	// checks.
	if tel := res.CGP.Telemetry; res.CEC.Checks < tel.Evaluations-tel.DedupSkips {
		t.Fatalf("CEC checks %d < CGP evaluations %d - dedup skips %d", res.CEC.Checks, tel.Evaluations, tel.DedupSkips)
	}
	if res.CEC.ExhaustiveProved == 0 {
		t.Fatal("no exhaustive proofs recorded for a 2-input circuit")
	}
	// Registry snapshot carries the same counters.
	if res.Obs.Counters["cec.checks"] != res.CEC.Checks {
		t.Fatalf("registry snapshot disagrees: %+v", res.Obs.Counters)
	}
	if res.Obs.Counters["cgp.evaluations"] != res.CGP.Telemetry.Evaluations {
		t.Fatalf("cgp.evaluations = %d, want %d",
			res.Obs.Counters["cgp.evaluations"], res.CGP.Telemetry.Evaluations)
	}
	if res.Obs.Histograms["flow.cgp"].Count != 1 {
		t.Fatalf("flow.cgp histogram missing: %+v", res.Obs.Histograms)
	}

	// The JSONL trace must parse line by line and its spans must nest.
	var events []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	if err := obs.ValidateSpanNesting(events); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev["ev"].(string)] = true
	}
	for _, k := range []string{"span_begin", "span_end", "cgp.gen", "cgp.done", "flow.done"} {
		if !kinds[k] {
			t.Fatalf("trace lacks %q events (have %v)", k, kinds)
		}
	}
}

func TestSkipCGPStageTimes(t *testing.T) {
	c := bench.Decoder(2)
	res, err := RunTables(c.Tables, Options{SkipCGP: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.StageTimes {
		if st.Name == "flow.cgp" {
			t.Fatal("flow.cgp stage recorded despite SkipCGP")
		}
	}
	if res.CEC.Checks == 0 {
		t.Fatal("initialization check not counted")
	}
}

// TestHybridTinyBudget checks that a hybrid CGP half whose share of a
// tiny budget rounds to 0 generations is skipped, not run at the engine's
// 20,000-generation default: each half that runs adds one evaluation of
// its initial netlist to its generations·λ or steps.
func TestHybridTinyBudget(t *testing.T) {
	c := bench.Mux4()
	for _, tc := range []struct {
		gens, lambda int
		want         int64
	}{
		{1, 4, 3},  // no CGP, 2 annealing steps
		{1, 1, 2},  // no CGP, 1 annealing step
		{2, 4, 10}, // 1 generation of 4 offspring, then 4 steps
		{3, 1, 4},  // 1 generation of 1 offspring, then 1 step
	} {
		res, err := RunTables(c.Tables, Options{
			Optimizer: "hybrid",
			CGP:       core.Options{Generations: tc.gens, Lambda: tc.lambda, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.CGP.Evaluations; got != tc.want {
			t.Fatalf("gens %d, λ %d: %d evaluations, want %d", tc.gens, tc.lambda, got, tc.want)
		}
	}
}

func TestHybridMergesTelemetry(t *testing.T) {
	c := bench.Decoder(2)
	res, err := RunTables(c.Tables, Options{
		CGP:       core.Options{Generations: 400, Seed: 2},
		Optimizer: "hybrid",
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := res.CGP.Telemetry
	if tel.Evaluations != res.CGP.Evaluations {
		t.Fatalf("telemetry evaluations %d != result evaluations %d",
			tel.Evaluations, res.CGP.Evaluations)
	}
	if tel.Mutations.TotalAttempts() == 0 {
		t.Fatal("hybrid run lost mutation stats")
	}
}
