package cec

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// TestCheckContextConcurrent hammers one Spec from many goroutines — the
// contract the parallel CGP engine relies on. Run under -race this is the
// regression test for the Spec's internal locking.
func TestCheckContextConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	a, n := buildPair(16, 60, 3, r)
	spec := NewSpecFromAIG(a, 4, 7)
	mutant := n.Clone()
	mutant.Gates[0].Cfg = mutant.Gates[0].Cfg.FlipBit(0)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cand := n
				if (w+i)%2 == 1 {
					cand = mutant
				}
				v := spec.CheckContext(context.Background(), cand, nil, nil)
				if cand == n && !v.Proved {
					t.Errorf("worker %d: correct netlist not proved: %+v", w, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := spec.Stats()
	if st.Checks != workers*20 {
		t.Fatalf("Checks = %d, want %d", st.Checks, workers*20)
	}
}

// TestCheckContextDefersWidening verifies the split the parallel reducer
// depends on: CheckContext returns the counterexample without touching the
// stimulus, and AddCounterexample folds it in later.
func TestCheckContextDefersWidening(t *testing.T) {
	// Spec = 16-input AND, candidate = constant 0: they differ on exactly
	// one assignment that random simulation essentially never samples, so
	// only the SAT miter finds it.
	spec, n := andSpecAndConstZero()

	words := spec.Words()
	v := spec.CheckContext(context.Background(), n, nil, nil)
	if v.Proved || v.Counterexample == nil {
		t.Fatalf("expected a SAT counterexample, got %+v", v)
	}
	if spec.Words() != words {
		t.Fatal("CheckContext widened the stimulus; widening must be deferred to AddCounterexample")
	}
	// Without learning, the same candidate still needs SAT to refute.
	spec.CheckContext(context.Background(), n, nil, nil)
	if st := spec.Stats(); st.SimRefuted != 0 {
		t.Fatalf("sim refuted before learning: %+v", st)
	}

	spec.AddCounterexample(v.Counterexample)
	if spec.Words() == words {
		t.Fatal("AddCounterexample did not widen the stimulus")
	}
	spec.CheckContext(context.Background(), n, nil, nil)
	if st := spec.Stats(); st.SimRefuted != 1 {
		t.Fatalf("learned counterexample did not move refutation to the sim screen: %+v", st)
	}
}

// TestCheckContextAborted verifies that a cancelled context surfaces as an
// inconclusive Aborted verdict and counts into SATAborted.
func TestCheckContextAborted(t *testing.T) {
	spec, n := andSpecAndConstZero()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v := spec.CheckContext(ctx, n, nil, nil)
	if v.Proved {
		t.Fatalf("cancelled check proved: %+v", v)
	}
	if !v.Aborted {
		t.Fatalf("verdict not marked aborted: %+v", v)
	}
	st := spec.Stats()
	if st.SATUnknown != 1 || st.SATAborted != 1 {
		t.Fatalf("SATUnknown/SATAborted = %d/%d, want 1/1", st.SATUnknown, st.SATAborted)
	}
	// A live context afterwards completes the check normally.
	v = spec.CheckContext(context.Background(), n, nil, nil)
	if v.Aborted || v.Counterexample == nil {
		t.Fatalf("post-cancel check did not recover: %+v", v)
	}
}

// andSpecAndConstZero builds the 16-input AND spec and a constant-0
// candidate, the pair whose single diverging assignment forces SAT.
func andSpecAndConstZero() (*Spec, *rqfp.Netlist) {
	a := aig.New(16)
	acc := a.PI(0)
	for i := 1; i < 16; i++ {
		acc = a.And(acc, a.PI(i))
	}
	a.AddPO(acc)
	spec := NewSpecFromAIG(a, 4, 99)

	n := rqfp.NewNetlist(16)
	cfg := rqfp.ConfigCopy.InvertInputAll(0).InvertInputAll(1).InvertInputAll(2)
	g := n.AddGate(rqfp.Gate{In: [3]rqfp.Signal{rqfp.ConstPort, rqfp.ConstPort, rqfp.ConstPort}, Cfg: cfg})
	n.POs = []rqfp.Signal{n.Port(g, 0)}
	return spec, n
}

// TestProve covers the one slow-path prover directly: a proof, a
// refutation whose counterexample is the single distinguishing
// assignment, and no verdict under a cancelled context.
func TestProve(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	a, n := buildPair(16, 60, 3, r)
	eq, cex, st, err := Prove(context.Background(), a.Cleanup(), n)
	if err != nil || !eq || cex != nil {
		t.Fatalf("equivalent pair: eq=%v cex=%v err=%v", eq, cex, err)
	}
	if st.Propagations == 0 {
		t.Fatal("no solver counters returned")
	}

	spec, zero := andSpecAndConstZero()
	eq, cex, _, err = Prove(context.Background(), spec.specAIG, zero)
	if err != nil || eq {
		t.Fatalf("AND16 vs constant 0: eq=%v err=%v, want a refutation", eq, err)
	}
	for i, v := range cex {
		if !v {
			t.Fatalf("counterexample bit %d is 0; only the all-ones assignment distinguishes", i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if eq, cex, _, err = Prove(ctx, a.Cleanup(), n); err == nil || eq || cex != nil {
		t.Fatalf("cancelled prove: eq=%v cex=%v err=%v, want no verdict", eq, cex, err)
	}
}

// TestVerdictLatencyScope checks that an attached scope receives one
// cec.verdict_latency sample per SAT verdict and none for simulation
// verdicts.
func TestVerdictLatencyScope(t *testing.T) {
	reg := obs.NewRegistry()
	spec, zero := andSpecAndConstZero()
	spec.AttachScope(obs.NewScope(reg))
	spec.Check(zero, nil, nil) // SAT refutation, widens the stimulus
	spec.Check(zero, nil, nil) // refuted by simulation alone
	if got := reg.Snapshot().Histograms["cec.verdict_latency"].Count; got != 1 {
		t.Fatalf("verdict_latency count = %d, want 1", got)
	}
}
