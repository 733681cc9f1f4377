package rqfp

import (
	"math/rand"
	"testing"

	"github.com/reversible-eda/rcgp/internal/bits"
)

// looseNetlist builds a topologically valid netlist (single fanout is not
// required by the simulator and deliberately not enforced here).
func looseNetlist(r *rand.Rand, numPI, numGates, numPO int) *Netlist {
	n := NewNetlist(numPI)
	for g := 0; g < numGates; g++ {
		base := int(n.GateBase(g))
		var gate Gate
		for j := 0; j < 3; j++ {
			gate.In[j] = Signal(r.Intn(base))
		}
		gate.Cfg = Config(r.Intn(NumConfigs))
		n.AddGate(gate)
	}
	for i := 0; i < numPO; i++ {
		n.POs = append(n.POs, Signal(r.Intn(n.NumPorts())))
	}
	return n
}

// mutateGenes applies k random gene edits to n, returning the indices of
// gates whose genes changed (PO-only edits contribute no seed gates).
func mutateGenes(r *rand.Rand, n *Netlist, k int) []int32 {
	var seeds []int32
	for i := 0; i < k; i++ {
		switch r.Intn(3) {
		case 0: // gate input
			g := r.Intn(len(n.Gates))
			j := r.Intn(3)
			n.Gates[g].In[j] = Signal(r.Intn(int(n.GateBase(g))))
			seeds = append(seeds, int32(g))
		case 1: // inverter configuration
			g := r.Intn(len(n.Gates))
			n.Gates[g].Cfg = n.Gates[g].Cfg.FlipBit(r.Intn(9))
			seeds = append(seeds, int32(g))
		case 2: // primary output
			po := r.Intn(len(n.POs))
			n.POs[po] = Signal(r.Intn(n.NumPorts()))
		}
	}
	return seeds
}

// deltaStimuli lists the stimulus widths the delta tests run at: 0 means
// exhaustive over the netlist's inputs (1–2 words for 2–7 inputs), and the
// random widths of 1, 3, 4, 5 and 17 words take the fused gate loop through
// the 1-word small circuits, 4-word hwb8 and the 16+-word wide specs.
var deltaStimuli = []int{0, 1, 3, 4, 5, 17}

// deltaInputs returns the stimulus for one trial. Half of the random ones
// repeat the all-zero assignment in every word but the last, so a
// difference from the parent shows up in the last word alone and a kernel
// that skipped a word's compare would miss it.
func deltaInputs(r *rand.Rand, numPI, words int) []bits.Vec {
	if words == 0 {
		return bits.ExhaustiveInputs(numPI)
	}
	ins := bits.RandomInputs(numPI, words, r)
	if r.Intn(2) == 0 {
		for _, in := range ins {
			clear(in[:words-1])
		}
	}
	return ins
}

func TestDeltaSimMatchesFullSimulation(t *testing.T) {
	for _, stim := range deltaStimuli {
		r := rand.New(rand.NewSource(99 + int64(stim)))
		for trial := 0; trial < 40; trial++ {
			numPI := 2 + r.Intn(6)
			parent := looseNetlist(r, numPI, 3+r.Intn(30), 1+r.Intn(4))
			inputs := deltaInputs(r, numPI, stim)
			words := len(inputs[0])

			base := NewSimContext(parent.NumPorts(), words)
			base.Run(parent, inputs, nil)
			d := NewDeltaSim(base)

			// Several offspring of the same parent exercise the epoch reuse.
			for off := 0; off < 4; off++ {
				cand := parent.Clone()
				seeds := mutateGenes(r, cand, 1+r.Intn(4))
				cone := d.RunDelta(cand, seeds, nil)

				ref := NewSimContext(cand.NumPorts(), words)
				ref.Run(cand, inputs, nil)
				for s := Signal(0); s < Signal(cand.NumPorts()); s++ {
					if !d.Port(s).Eq(ref.Port(s)) {
						t.Fatalf("%d words, trial %d offspring %d: port %d diverges (cone=%d, seeds=%v)",
							words, trial, off, s, cone, seeds)
					}
				}
				if cone > len(cand.Gates) {
					t.Fatalf("cone %d exceeds gate count %d", cone, len(cand.Gates))
				}
			}
		}
	}
}

func TestDeltaSimEmptyDeltaTouchesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	parent := looseNetlist(r, 4, 12, 2)
	inputs := bits.ExhaustiveInputs(4)
	base := NewSimContext(parent.NumPorts(), len(inputs[0]))
	base.Run(parent, inputs, nil)
	d := NewDeltaSim(base)
	if cone := d.RunDelta(parent, nil, nil); cone != 0 {
		t.Fatalf("no seeds: cone = %d, want 0", cone)
	}
	for _, po := range parent.POs {
		if !d.Port(po).Eq(base.Port(po)) {
			t.Fatal("clean delta must expose the base values")
		}
	}
}

func TestDeltaSimRespectsActiveMask(t *testing.T) {
	for _, stim := range deltaStimuli {
		r := rand.New(rand.NewSource(17 + int64(stim)))
		parent := looseNetlist(r, 4, 15, 2)
		inputs := deltaInputs(r, 4, stim)
		base := NewSimContext(parent.NumPorts(), len(inputs[0]))
		base.Run(parent, inputs, nil)
		d := NewDeltaSim(base)

		cand := parent.Clone()
		seeds := mutateGenes(r, cand, 3)
		active := cand.ActiveGates()
		d.RunDelta(cand, seeds, active)

		ref := NewSimContext(cand.NumPorts(), len(inputs[0]))
		ref.Run(cand, inputs, nil)
		for _, po := range cand.POs {
			if !d.Port(po).Eq(ref.Port(po)) {
				t.Fatalf("%d words: active-masked delta diverges on a primary output", len(inputs[0]))
			}
		}
	}
}

// BenchmarkRunDelta times the dirty-cone kernel alone at cgp-hwb8's scale:
// a 1,686-gate, 8-input netlist under its exhaustive 4-word stimulus, and
// offspring of about 170 configuration flips each, the count a hwb8
// offspring gets at the default mutation rate.
func BenchmarkRunDelta(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	parent := looseNetlist(r, 8, 1686, 8)
	inputs := bits.ExhaustiveInputs(8)
	base := NewSimContext(parent.NumPorts(), len(inputs[0]))
	base.Run(parent, inputs, nil)
	d := NewDeltaSim(base)
	const mutants = 32
	cands := make([]*Netlist, mutants)
	seeds := make([][]int32, mutants)
	for i := range cands {
		cands[i] = parent.Clone()
		for k := 0; k < 170; k++ {
			g := r.Intn(len(parent.Gates))
			cands[i].Gates[g].Cfg = cands[i].Gates[g].Cfg.FlipBit(r.Intn(9))
			seeds[i] = append(seeds[i], int32(g))
		}
	}
	d.RunDelta(cands[0], seeds[0], nil) // grow the overlay outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	cone := 0
	for i := 0; i < b.N; i++ {
		cone += d.RunDelta(cands[i%mutants], seeds[i%mutants], nil)
	}
	b.ReportMetric(float64(cone)/float64(b.N), "gates/op")
}

func TestPhenotypeEqual(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n := looseNetlist(r, 4, 10, 2)
	m := n.Clone()
	if !PhenotypeEqual(n, m, n.ActiveGates(), m.ActiveGates()) {
		t.Fatal("a clone must be phenotype-equal")
	}

	// A gene change on an inactive gate keeps the phenotype.
	active := n.ActiveGates()
	inactive := -1
	for g, a := range active {
		if !a {
			inactive = g
			break
		}
	}
	if inactive >= 0 {
		m.Gates[inactive].Cfg = m.Gates[inactive].Cfg.FlipBit(0)
		if !PhenotypeEqual(n, m, n.ActiveGates(), m.ActiveGates()) {
			t.Fatal("an inactive-gate edit must stay phenotype-equal")
		}
	}

	// A config flip on an active gate breaks it.
	m2 := n.Clone()
	flipped := false
	for g, a := range active {
		if a {
			m2.Gates[g].Cfg = m2.Gates[g].Cfg.FlipBit(3)
			flipped = true
			break
		}
	}
	if flipped && PhenotypeEqual(n, m2, n.ActiveGates(), m2.ActiveGates()) {
		t.Fatal("an active-gate edit must not be phenotype-equal")
	}

	// A PO change breaks it.
	m3 := n.Clone()
	m3.POs[0] = ConstPort
	if n.POs[0] != ConstPort && PhenotypeEqual(n, m3, n.ActiveGates(), m3.ActiveGates()) {
		t.Fatal("a PO edit must not be phenotype-equal")
	}
}
