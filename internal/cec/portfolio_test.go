package cec

import (
	"context"
	"math/rand"
	"testing"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// corruptNetlist returns a copy of n with one PO redirected to the
// constant port — usually a near-miss the simulation screen won't always
// catch, and always inequivalent for non-constant specs.
func corruptPOs(n *rqfp.Netlist) *rqfp.Netlist {
	c := n.Clone()
	c.POs[len(c.POs)-1] = rqfp.ConstPort
	return c
}

// TestPortfolioVerdictIdentity is the determinism core of the racing
// layer: on the same query, a 1-prover and a 2-prover portfolio must
// return the identical outcome AND the identical counterexample bits (the
// authority's model), however the racers are scheduled. Run under -race
// this also exercises the race cancellation.
func TestPortfolioVerdictIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		a, n := buildPair(16, 60, 3, r)
		solo := NewPortfolio(a.Cleanup(), PortfolioConfig{Provers: 1})
		raced := NewPortfolio(a.Cleanup(), PortfolioConfig{Provers: 2})
		for _, cand := range []*rqfp.Netlist{n, corruptPOs(n)} {
			want := solo.Prove(context.Background(), cand)
			// Repeat the raced query: every run must match the solo verdict
			// bit for bit.
			for rep := 0; rep < 4; rep++ {
				got := raced.Prove(context.Background(), cand)
				if got.Outcome != want.Outcome {
					t.Fatalf("trial %d rep %d: outcome %v != solo %v", trial, rep, got.Outcome, want.Outcome)
				}
				if len(got.Counterexample) != len(want.Counterexample) {
					t.Fatalf("trial %d rep %d: cex length diverged", trial, rep)
				}
				for i := range got.Counterexample {
					if got.Counterexample[i] != want.Counterexample[i] {
						t.Fatalf("trial %d rep %d: counterexample bit %d diverged from the authority's model", trial, rep, i)
					}
				}
			}
		}
	}
}

// TestPortfolioEngineAccounting checks the roster construction and that
// every query is accounted to every engine.
func TestPortfolioEngineAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a, n := buildPair(16, 50, 2, r)
	pf := NewPortfolio(a.Cleanup(), PortfolioConfig{Provers: 4})
	if pf.NumProvers() != 2 {
		t.Fatalf("NumProvers = %d, want 2 (clamped)", pf.NumProvers())
	}
	const queries = 3
	for i := 0; i < queries; i++ {
		if res := pf.Prove(context.Background(), n); res.Outcome != OutcomeEquivalent {
			t.Fatalf("query %d: %v", i, res.Outcome)
		}
	}
	engines := pf.Engines()
	if len(engines) != 2 || engines[1].Name != AuxEngine {
		t.Fatalf("Engines() = %+v, want [sat bdd]", engines)
	}
	if engines[0].Name != AuthorityEngine {
		t.Fatalf("priority head is %q, want the authority", engines[0].Name)
	}
	var wins, answered int64
	for _, e := range engines {
		wins += e.Wins
		answered += e.Proved + e.Refuted + e.Unknown
	}
	if wins != queries {
		t.Fatalf("total wins %d, want exactly one per query (%d)", wins, queries)
	}
	if answered != queries*int64(len(engines)) {
		t.Fatalf("answered %d, want every engine accounted per query (%d)", answered, queries*len(engines))
	}
}

// TestPortfolioRosterSelection pins the roster rules: the authority alone
// below 2 provers, authority then BDD from 2 up, oversized rosters clamp.
func TestPortfolioRosterSelection(t *testing.T) {
	cases := []struct {
		cfg  PortfolioConfig
		want []string
	}{
		{PortfolioConfig{}, []string{"sat"}},
		{PortfolioConfig{Provers: 1}, []string{"sat"}},
		{PortfolioConfig{Provers: 2}, []string{"sat", "bdd"}},
		{PortfolioConfig{Provers: 4}, []string{"sat", "bdd"}},
		{PortfolioConfig{Provers: 99}, []string{"sat", "bdd"}},
	}
	for i, c := range cases {
		got := c.cfg.EngineNames()
		if len(got) != len(c.want) {
			t.Fatalf("case %d: %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: %v, want %v", i, got, c.want)
			}
		}
	}
}

// TestPortfolioAborts checks that a cancelled context yields unknown with
// the context error, for both roster sizes.
func TestPortfolioAborts(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a, n := buildPair(16, 60, 3, r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, provers := range []int{1, 2} {
		pf := NewPortfolio(a.Cleanup(), PortfolioConfig{Provers: provers})
		res := pf.Prove(ctx, n)
		if res.Outcome != OutcomeUnknown || res.Err == nil {
			t.Fatalf("provers=%d: cancelled prove returned %v err=%v", provers, res.Outcome, res.Err)
		}
	}
}

// TestSpecPortfolioDeterministicCex runs the full Spec slow path with a
// racing portfolio on a spec with multiple distinguishing assignments (an
// AND over 15 of 16 inputs vs. constant zero: two counterexamples) and
// demands the counterexample the search would widen on stays identical
// to the single-prover run's.
func TestSpecPortfolioDeterministicCex(t *testing.T) {
	query := func(provers int) []bool {
		a := aigAnd15of16()
		spec := NewSpecFromAIG(a, 4, 99)
		spec.ConfigurePortfolio(PortfolioConfig{Provers: provers})
		n := constZeroNetlist16()
		v := spec.CheckContext(context.Background(), n, nil, nil)
		if v.Proved || v.Counterexample == nil {
			t.Fatalf("provers=%d: expected a refutation with cex, got %+v", provers, v)
		}
		return v.Counterexample
	}
	want := query(1)
	for rep := 0; rep < 5; rep++ {
		got := query(2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d: adopted cex diverged from the single-prover run at bit %d", rep, i)
			}
		}
	}
}

// aigAnd15of16 is AND(x0..x14) over 16 inputs — x15 is free, so exactly
// two assignments distinguish it from constant zero and random simulation
// virtually never samples them.
func aigAnd15of16() *aig.AIG {
	a := aig.New(16)
	acc := a.PI(0)
	for i := 1; i < 15; i++ {
		acc = a.And(acc, a.PI(i))
	}
	a.AddPO(acc)
	return a
}

func constZeroNetlist16() *rqfp.Netlist {
	n := rqfp.NewNetlist(16)
	cfg := rqfp.ConfigCopy.InvertInputAll(0).InvertInputAll(1).InvertInputAll(2)
	g := n.AddGate(rqfp.Gate{In: [3]rqfp.Signal{rqfp.ConstPort, rqfp.ConstPort, rqfp.ConstPort}, Cfg: cfg})
	n.POs = []rqfp.Signal{n.Port(g, 0)}
	return n
}

// TestNetlistsEquivalentPortfolio exercises the collapsed
// netlist-vs-netlist entry point with racing enabled.
func TestNetlistsEquivalentPortfolio(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	_, n := buildPair(16, 50, 3, r)
	res := NetlistsEquivalentPortfolio(context.Background(), n, n.Clone(), PortfolioConfig{Provers: 2})
	if res.Outcome != OutcomeEquivalent {
		t.Fatalf("clone not equivalent: %v (err %v)", res.Outcome, res.Err)
	}
	res = NetlistsEquivalentPortfolio(context.Background(), n, corruptPOs(n), PortfolioConfig{Provers: 2})
	if res.Outcome != OutcomeNotEquivalent {
		t.Fatalf("corrupted clone not refuted: %v (err %v)", res.Outcome, res.Err)
	}
}
