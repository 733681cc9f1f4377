package cec

import (
	"context"
	"slices"
	"testing"

	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// twoAndChains returns an exhaustive spec and an RQFP netlist of two
// 4-input ANDs, over x0..x3 (gates 0–2) and x4..x7 (gates 3–5). Each gate
// computes MAJ(prev, x, ¬1) = prev ∧ x on majority 0, read by the next
// gate or a primary output, and MAJ(prev, x, 1) = prev ∨ x on majorities 1
// and 2, which are garbage.
func twoAndChains() (*Spec, *rqfp.Netlist) {
	n := rqfp.NewNetlist(8)
	and := rqfp.ConfigCopy.FlipInv(0, 2)
	for c := 0; c < 2; c++ {
		prev := n.PIPort(4 * c)
		for i := 1; i < 4; i++ {
			g := n.AddGate(rqfp.Gate{In: [3]rqfp.Signal{prev, n.PIPort(4*c + i), rqfp.ConstPort}, Cfg: and})
			prev = n.Port(g, 0)
		}
		n.POs = append(n.POs, prev)
	}
	return NewSpecFromNetlist(n, 0, 1), n
}

// TestCheckDeltaFastRefute checks the stop set of the fast-refute screen.
// An offspring whose first output is wrong in word 0 of the stimulus is
// refuted there by the one-word screen: the same verdict and oracle
// counters as the exact check, fewer gates simulated, and a Match from
// that output's word-0 wrong bits alone. An offspring wrong only beyond
// word 0 passes the screen and is refuted by the full sweep, with the
// output's full wrong-bit count. An offspring that moves an output to
// another port of the gate it read must not be refuted by the old port's
// new value, and the check leaves the stop set as the parent built it.
func TestCheckDeltaFastRefute(t *testing.T) {
	ctx := context.Background()
	spec, parent := twoAndChains()
	inc := NewIncremental(spec)
	inc.SetParent(parent, nil, true)
	stats := func() Stats {
		inc.Flush()
		return spec.Stats()
	}

	// Gate 2, which feeds the first output, and gate 3, the second chain's
	// first gate, become ORs.
	wrong := parent.Clone()
	wrong.Gates[2].Cfg = rqfp.ConfigCopy
	wrong.Gates[3].Cfg = rqfp.ConfigCopy
	dirty := []int32{2, 3}
	before := stats()
	exact, exactCone, ok := inc.CheckDelta(ctx, wrong, dirty, nil, false)
	if !ok || exact.Proved || exact.Counterexample != nil || exact.Match >= 1 {
		t.Fatalf("exact check of a wrong offspring: %+v ok=%v", exact, ok)
	}
	mid := stats()
	fast, fastCone, ok := inc.CheckDelta(ctx, wrong, dirty, nil, true)
	if !ok || fast.Proved || fast.Counterexample != nil || fast.Aborted {
		t.Fatalf("fast check of a wrong offspring: %+v ok=%v", fast, ok)
	}
	if fastCone != 1 || exactCone <= fastCone {
		t.Fatalf("fast check simulated %d gates, exact %d; want 1 and more", fastCone, exactCone)
	}
	// (x0 ∧ x1 ∧ x2) ∨ x3 differs from the AND of all four on 8 of the 16
	// assignments to x0..x3: 32 of the 64 samples in word 0 (x6 = x7 = 0),
	// of 512 output bits.
	if want := 1 - 32.0/512; fast.Match != want || exact.Match >= fast.Match {
		t.Fatalf("fast Match %v, exact %v; want %v and an exact Match below it", fast.Match, exact.Match, want)
	}
	after := stats()
	if d1, d2 := mid.Checks-before.Checks, after.Checks-mid.Checks; d1 != 1 || d2 != 1 {
		t.Fatalf("Checks rose by %d (exact) and %d (fast), want 1 each", d1, d2)
	}
	if d1, d2 := mid.SimRefuted-before.SimRefuted, after.SimRefuted-mid.SimRefuted; d1 != 1 || d2 != 1 {
		t.Fatalf("SimRefuted rose by %d (exact) and %d (fast), want 1 each", d1, d2)
	}

	// The second chain's last gate becomes an OR: (x4 ∧ x5 ∧ x6) ∨ x7 is
	// wrong where x7 = 1 unless x4 ∧ x5 ∧ x6 (112 samples), and where
	// x4 ∧ x5 ∧ x6 ∧ ¬x7 (16 samples), never in word 0. The screen passes
	// it; the full sweep stops at the second output with its full count.
	late := parent.Clone()
	late.Gates[5].Cfg = rqfp.ConfigCopy
	before = stats()
	v, cone, ok := inc.CheckDelta(ctx, late, []int32{5}, nil, true)
	if !ok || v.Proved || v.Counterexample != nil {
		t.Fatalf("fast check of an offspring wrong beyond word 0: %+v ok=%v", v, ok)
	}
	if want := 1 - 128.0/512; v.Match != want || cone != 2 {
		t.Fatalf("offspring wrong beyond word 0: Match %v after %d gates, want %v after 2 (screen and sweep)", v.Match, cone, want)
	}
	exactLate, _, _ := inc.CheckDelta(ctx, late, []int32{5}, nil, false)
	if exactLate.Match != v.Match {
		t.Fatalf("offspring wrong beyond word 0: fast Match %v, exact %v; want the same", v.Match, exactLate.Match)
	}
	if st := stats(); st.Checks-before.Checks != 2 || st.SimRefuted-before.SimRefuted != 2 {
		t.Fatalf("two checks of an offspring wrong beyond word 0 raised Checks by %d and SimRefuted by %d, want 2 each",
			st.Checks-before.Checks, st.SimRefuted-before.SimRefuted)
	}

	// Gate 5 swaps its AND and OR majorities, and the second output moves
	// to the AND: the old port now differs, but no output reads it.
	moved := parent.Clone()
	moved.Gates[5].Cfg = rqfp.ConfigCopy.FlipInv(1, 2)
	moved.POs[1] = moved.Port(5, 1)
	if v, _, ok := inc.CheckDelta(ctx, moved, []int32{5}, []int32{1}, true); !ok || !v.Proved {
		t.Fatalf("fast check of an equivalent offspring with a moved output: %+v ok=%v", v, ok)
	}
	for p, watched := range inc.stop {
		if want := slices.Contains(parent.POs, rqfp.Signal(p)); watched != want {
			t.Fatalf("port %d watched=%v after the check, want %v", p, watched, want)
		}
	}
}
