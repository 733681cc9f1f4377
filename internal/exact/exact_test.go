package exact

import (
	"testing"
	"time"

	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/sat"
	"github.com/reversible-eda/rcgp/internal/tt"
)

func verify(t *testing.T, tables []tt.TT, res *Result) {
	t.Helper()
	if err := res.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
	got := res.Netlist.TruthTables()
	for i := range tables {
		if !got[i].Equal(tables[i]) {
			t.Fatalf("output %d: got %s want %s", i, got[i], tables[i])
		}
	}
}

func TestSynthesizeBuffer(t *testing.T) {
	// Identity of one variable: a single splitter-like gate suffices.
	tables := []tt.TT{tt.Var(1, 0)}
	res, err := Synthesize(tables, Options{MaxGates: 2})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, tables, res)
	if res.Gates != 1 {
		t.Fatalf("gates = %d, want 1", res.Gates)
	}
}

func TestSynthesizeAndOr(t *testing.T) {
	// One RQFP gate realizes AND and OR of the same inputs simultaneously
	// (it is R(a,b,1) up to configuration).
	and := tt.Var(2, 0).And(tt.Var(2, 1))
	or := tt.Var(2, 0).Or(tt.Var(2, 1))
	res, err := Synthesize([]tt.TT{and, or}, Options{MaxGates: 2})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, []tt.TT{and, or}, res)
	if res.Gates != 1 {
		t.Fatalf("gates = %d, want 1", res.Gates)
	}
}

func TestSynthesizeXorNeedsTwoGates(t *testing.T) {
	// XOR is not a single-majority function under any inverter
	// configuration, so two gates are required.
	xor := tt.Var(2, 0).Xor(tt.Var(2, 1))
	res, err := Synthesize([]tt.TT{xor}, Options{MaxGates: 3})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, []tt.TT{xor}, res)
	if res.Gates != 2 {
		t.Fatalf("gates = %d, want 2", res.Gates)
	}
}

func TestSynthesizeFullAdderMatchesPaper(t *testing.T) {
	// Table 1: exact synthesis reaches n_r = 3, n_g = 2 on the full adder.
	c := bench.FullAdder()
	res, err := Synthesize(c.Tables, Options{MaxGates: 3})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, c.Tables, res)
	if res.Gates != 3 {
		t.Fatalf("gates = %d, want 3 (paper Table 1)", res.Gates)
	}
	if res.Garbage > 2 {
		t.Fatalf("garbage = %d, want ≤ 2 (paper Table 1)", res.Garbage)
	}
}

func TestSynthesizeDecoderMatchesPaper(t *testing.T) {
	// Table 1: decoder_2_4 at n_r = 3, n_g = 1.
	c := bench.Decoder(2)
	res, err := Synthesize(c.Tables, Options{MaxGates: 3})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, c.Tables, res)
	if res.Gates != 3 {
		t.Fatalf("gates = %d, want 3 (paper Table 1)", res.Gates)
	}
	if res.Garbage > 1 {
		t.Fatalf("garbage = %d, want ≤ 1 (paper Table 1)", res.Garbage)
	}
}

func TestSynthesizeFixedInfeasible(t *testing.T) {
	xor := tt.Var(2, 0).Xor(tt.Var(2, 1))
	_, st, err := SynthesizeFixed([]tt.TT{xor}, 1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st != sat.Unsat {
		t.Fatalf("1-gate XOR should be UNSAT, got %v", st)
	}
}

func TestGarbageBudgetBites(t *testing.T) {
	// AND with zero garbage allowed is impossible: the gate's other two
	// ports and at least one spare must dangle.
	and := tt.Var(2, 0).And(tt.Var(2, 1))
	_, st, err := SynthesizeFixed([]tt.TT{and}, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st != sat.Unsat {
		t.Fatalf("zero-garbage AND should be UNSAT, got %v", st)
	}
}

func TestConflictLimitYieldsTimeout(t *testing.T) {
	c := bench.Decoder(2)
	_, err := Synthesize(c.Tables, Options{MaxGates: 3, ConflictLimit: 1})
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestTimeBudget(t *testing.T) {
	c := bench.Decoder(3) // far too big to finish in a microsecond
	_, err := Synthesize(c.Tables, Options{MaxGates: 20, TimeBudget: time.Microsecond})
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestTimeBudgetStopsMidProof pins the budget to the solver's own deadline
// polling: a budget that expires inside a proof of several seconds must
// stop that proof, not wait for it to end.
func TestTimeBudgetStopsMidProof(t *testing.T) {
	const budget = 100 * time.Millisecond
	run := func(c bench.Circuit, maxGates int, limit time.Duration) (*Result, error) {
		start := time.Now()
		res, err := Synthesize(c.Tables, Options{MaxGates: maxGates, TimeBudget: limit})
		if elapsed := time.Since(start); elapsed > limit+time.Second {
			t.Fatalf("%s: returned after %v on a %v budget", c.Name, elapsed, limit)
		}
		return res, err
	}

	// decoder_3_8: the budget ends inside a gate-count proof.
	if _, err := run(bench.Decoder(3), 8, budget); err != ErrTimeout {
		t.Fatalf("decoder_3_8: err = %v, want ErrTimeout", err)
	}

	// decoder_2_4: the budget ends inside the garbage-minimality proof,
	// 100 ms after the gate count is settled; the 3-gate circuit already
	// found is returned.
	c := bench.Decoder(2)
	start := time.Now()
	if _, err := Synthesize(c.Tables, Options{MaxGates: 3, SkipGarbageMinimization: true}); err != nil {
		t.Fatal(err)
	}
	res, err := run(c, 3, time.Since(start)+budget)
	switch {
	case err == nil:
		verify(t, c.Tables, res)
	case err != ErrTimeout: // ErrTimeout: the gate count took longer this time
		t.Fatal(err)
	}
}

func TestUnsatWithinBound(t *testing.T) {
	c := bench.Decoder(2)
	_, err := Synthesize(c.Tables, Options{MaxGates: 1})
	if err != ErrUnsat {
		t.Fatalf("err = %v, want ErrUnsat", err)
	}
}

func BenchmarkExactFullAdder(b *testing.B) {
	c := bench.FullAdder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(c.Tables, Options{MaxGates: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
