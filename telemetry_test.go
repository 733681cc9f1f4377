package rcgp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestTelemetrySnapshotFacade(t *testing.T) {
	d, err := Benchmark("decoder_2_4")
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	res, err := d.Synthesize(Options{Generations: 2000, Seed: 11, Trace: &trace})
	if err != nil {
		t.Fatal(err)
	}
	tel := res.Telemetry
	if len(tel.Stages) == 0 {
		t.Fatal("no stage breakdown")
	}
	var sum time.Duration
	seen := map[string]bool{}
	for _, st := range tel.Stages {
		if st.Duration < 0 {
			t.Fatalf("negative stage time: %+v", st)
		}
		seen[st.Name] = true
		sum += st.Duration
	}
	for _, want := range []string{"flow.convert", "flow.cgp"} {
		if !seen[want] {
			t.Fatalf("stage %q missing from %+v", want, tel.Stages)
		}
	}
	if sum > res.Runtime+50*time.Millisecond {
		t.Fatalf("stage sum %v exceeds runtime %v", sum, res.Runtime)
	}
	if tel.Evaluations != res.Evaluations || tel.Evaluations == 0 {
		t.Fatalf("evaluations mismatch: telemetry %d, result %d", tel.Evaluations, res.Evaluations)
	}
	if tel.Adoptions != tel.Improvements+tel.NeutralAdoptions {
		t.Fatalf("adoption accounting: %+v", tel)
	}
	if len(tel.Mutations) != 3 {
		t.Fatalf("mutation kinds = %+v, want config/gate_input/po", tel.Mutations)
	}
	var attempts int64
	for _, m := range tel.Mutations {
		if m.Applied > m.Attempts {
			t.Fatalf("kind %s applied > attempted: %+v", m.Kind, m)
		}
		attempts += m.Attempts
	}
	if attempts == 0 {
		t.Fatal("no mutation attempts recorded")
	}
	if r := tel.MutationAcceptRate(); r <= 0 || r > 1 {
		t.Fatalf("accept rate %v out of range", r)
	}
	// Every CGP evaluation but the phenotype-dedup skips goes through the
	// equivalence oracle, plus the initialization and per-stage
	// verification checks.
	if tel.CEC.Checks <= tel.Evaluations-tel.DedupSkips {
		t.Fatalf("CEC checks %d, want > evaluations %d - dedup skips %d", tel.CEC.Checks, tel.Evaluations, tel.DedupSkips)
	}
	if tel.CEC.ExhaustiveProved == 0 {
		t.Fatal("2-input circuit should be proved exhaustively")
	}

	// The trace must be valid JSONL.
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(trace.Bytes()))
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("empty trace")
	}
}

func TestTelemetryWithoutTrace(t *testing.T) {
	d, _ := Benchmark("ham3")
	res, err := d.Synthesize(Options{Generations: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Evaluations == 0 || len(res.Telemetry.Stages) == 0 {
		t.Fatalf("telemetry missing without a tracer: %+v", res.Telemetry)
	}
}

func TestEquivalentStats(t *testing.T) {
	d, _ := Benchmark("4gt10")
	res, err := d.Synthesize(Options{Generations: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.Synthesize(Options{InitializationOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	eq, st, err := res.Circuit().EquivalentStats(base.Circuit())
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("optimized circuit not equivalent to its baseline")
	}
	if st.Propagations < 0 || st.Conflicts < 0 {
		t.Fatalf("nonsense SAT stats: %+v", st)
	}
}
