package cec

import (
	"context"
	"slices"
	"testing"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/sat"
)

// andChain returns the 16-input AND as a spec — random simulation of 4
// words virtually never samples its one true assignment — and an RQFP
// netlist of it: gate i-1 computes MAJ(prev, x_i, ¬1) = prev ∧ x_i on all
// three majorities, and the next gate reads port 0.
func andChain() (*Spec, *rqfp.Netlist) {
	a := aig.New(16)
	acc := a.PI(0)
	for i := 1; i < 16; i++ {
		acc = a.And(acc, a.PI(i))
	}
	a.AddPO(acc)
	n := rqfp.NewNetlist(16)
	and := rqfp.ConfigCopy.InvertInputAll(2)
	prev := n.PIPort(0)
	for i := 1; i < 16; i++ {
		g := n.AddGate(rqfp.Gate{In: [3]rqfp.Signal{prev, n.PIPort(i), rqfp.ConstPort}, Cfg: and})
		prev = n.Port(g, 0)
	}
	n.POs = []rqfp.Signal{prev}
	return NewSpecFromAIG(a, 4, 99), n
}

// TestParentProofRareDivergence checks the parent-relative proof on the
// case simulation cannot settle. A child that differs from its proved
// parent only on the all-ones assignment must be refuted with exactly the
// counterexample the spec miter gives, without widening the stimulus; an
// equivalent child must be proved, by the solver when its structure
// differs and without it when the structural hash merges it into the
// parent; a cancelled context aborts the proof.
func TestParentProofRareDivergence(t *testing.T) {
	ctx := context.Background()
	spec, parent := andChain()
	if v := spec.CheckContext(ctx, parent, nil, nil); !v.Proved {
		t.Fatalf("the AND chain is not proved against its spec: %+v", v)
	}
	inc := NewIncremental(spec)
	inc.SetParent(parent, nil, true)
	last := len(parent.Gates) - 1
	stats := func() Stats {
		inc.Flush()
		return spec.Stats()
	}

	// Constant 0 from gate 3 on: its majority 0 becomes MAJ(¬1, ¬1, ¬1),
	// and every later gate of the chain joins the mutated cone.
	zero := parent.Clone()
	zero.Gates[3] = rqfp.Gate{
		In:  [3]rqfp.Signal{rqfp.ConstPort, rqfp.ConstPort, rqfp.ConstPort},
		Cfg: rqfp.ConfigCopy.FlipInv(0, 0).FlipInv(0, 1).FlipInv(0, 2),
	}
	_, wantCex, proveStats, err := Prove(ctx, spec.specAIG, zero)
	if err != nil || wantCex == nil {
		t.Fatalf("the spec miter did not refute the constant: cex %v, err %v", wantCex, err)
	}
	before, words := stats(), spec.Words()
	v, _, ok := inc.CheckDelta(ctx, zero, []int32{3}, nil, false)
	if !ok || v.Proved || v.Aborted {
		t.Fatalf("constant 0 not refuted: %+v ok=%v", v, ok)
	}
	if !slices.Equal(v.Counterexample, wantCex) {
		t.Fatalf("counterexample %v, the spec miter gives %v", v.Counterexample, wantCex)
	}
	if spec.Words() != words {
		t.Fatal("CheckDelta widened the stimulus")
	}
	after := stats()
	if after.SATRefuted != before.SATRefuted+1 || after.SATProved != before.SATProved {
		t.Fatalf("refutation not counted once: before %+v, after %+v", before, after)
	}
	// Both solves count: the parent miter's, then the spec miter's.
	if got := after.SAT.Propagations - before.SAT.Propagations; got <= proveStats.Propagations {
		t.Fatalf("refutation counted %d propagations, the spec miter alone %d", got, proveStats.Propagations)
	}

	// Re-associated: (p12 ∧ x14) ∧ x15 becomes p12 ∧ (x14 ∧ x15).
	assoc := parent.Clone()
	assoc.Gates[last-1].In = [3]rqfp.Signal{assoc.PIPort(14), assoc.PIPort(15), rqfp.ConstPort}
	assoc.Gates[last].In = [3]rqfp.Signal{assoc.Port(last-2, 0), assoc.Port(last-1, 0), rqfp.ConstPort}
	if err := assoc.Validate(); err != nil {
		t.Fatal(err)
	}
	before = stats()
	v, _, ok = inc.CheckDelta(ctx, assoc, []int32{int32(last - 1), int32(last)}, nil, false)
	if !ok || !v.Proved {
		t.Fatalf("re-associated chain not proved: %+v ok=%v", v, ok)
	}
	after = stats()
	if after.SATProved != before.SATProved+1 || after.SAT.Propagations == before.SAT.Propagations ||
		after.StructuralProved != before.StructuralProved {
		t.Fatalf("re-associated chain not proved by the solver: before %+v, after %+v", before, after)
	}

	// Swapped fanins of a symmetric majority: the hash merges every cone
	// gate into the parent's, so no solver runs.
	swap := parent.Clone()
	in := &swap.Gates[3].In
	in[0], in[1] = in[1], in[0]
	before = stats()
	v, _, ok = inc.CheckDelta(ctx, swap, []int32{3}, nil, false)
	if !ok || !v.Proved {
		t.Fatalf("swapped fanins not proved: %+v ok=%v", v, ok)
	}
	after = stats()
	if after.SATProved != before.SATProved+1 || after.SAT != before.SAT ||
		after.StructuralProved != before.StructuralProved+1 {
		t.Fatalf("swapped fanins needed the solver: before %+v, after %+v", before, after)
	}

	// A cancelled context aborts the proof, as on the spec path.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	before = stats()
	v, _, _ = inc.CheckDelta(cancelled, assoc, []int32{int32(last - 1), int32(last)}, nil, false)
	if after = stats(); v.Proved || !v.Aborted || after.SATAborted != before.SATAborted+1 {
		t.Fatalf("cancelled proof: %+v, aborted %d → %d", v, before.SATAborted, after.SATAborted)
	}

	// An unproved parent sends the same refutation to the spec miter alone.
	inc.SetParent(parent, nil, false)
	before = stats()
	v, _, _ = inc.CheckDelta(ctx, zero, []int32{3}, nil, false)
	if !slices.Equal(v.Counterexample, wantCex) {
		t.Fatalf("spec path counterexample %v, want %v", v.Counterexample, wantCex)
	}
	if after = stats(); after.SAT.Propagations-before.SAT.Propagations != proveStats.Propagations {
		t.Fatal("an unproved parent did not leave the proof to the spec miter")
	}
}

// TestParentMiterStructuralHash checks the hashed majority against MAJ on
// every triple over {1, a, b, c} and their complements — repeated and
// complementary fanins that collapse, and triples merged with an earlier
// node or its complement — through the clauses build writes for the
// recorded nodes.
func TestParentMiterStructuralHash(t *testing.T) {
	var m parentMiter
	m.reset(rqfp.NewNetlist(3))
	a, b, c := sat.MkLit(1, false), sat.MkLit(2, false), sat.MkLit(3, false)
	var lits []sat.Lit // index 2i is variable i of {1, a, b, c}, 2i+1 its complement
	for _, l := range []sat.Lit{constTrue, a, b, c} {
		lits = append(lits, l, l.Not())
	}
	type node struct {
		in  [3]int
		out sat.Lit
	}
	var nodes []node
	for i := range lits {
		for j := range lits {
			for k := range lits {
				nodes = append(nodes, node{[3]int{i, j, k}, m.maj(lits[i], lits[j], lits[k])})
			}
		}
	}
	if m.maj(c, a, b) != m.maj(a, b, c) || m.maj(a.Not(), b.Not(), c.Not()) != m.maj(a, b, c).Not() {
		t.Fatal("permuted or complemented triples were not merged")
	}
	s := m.build().S
	if s.NumVars() != m.vars {
		t.Fatalf("built %d variables for the pass's %d", s.NumVars(), m.vars)
	}
	for x := 0; x < 8; x++ {
		val := func(i int) bool {
			v := i/2 == 0 || x>>(i/2-1)&1 == 1
			return v != (i%2 == 1)
		}
		assume := []sat.Lit{sat.MkLit(a.Var(), x&1 == 0), sat.MkLit(b.Var(), x&2 == 0), sat.MkLit(c.Var(), x&4 == 0)}
		if st, err := s.Solve(assume...); err != nil || st != sat.Sat {
			t.Fatalf("assignment %03b: %v %v", x, st, err)
		}
		for _, n := range nodes {
			ones := 0
			for _, i := range n.in {
				if val(i) {
					ones++
				}
			}
			if got, want := s.ValueLit(n.out), ones >= 2; got != want {
				t.Fatalf("assignment %03b: MAJ%v = %v, want %v", x, n.in, got, want)
			}
		}
	}
}
