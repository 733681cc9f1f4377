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
				cone, _, stopped := d.RunDelta(cand, seeds, nil, 0)
				if stopped {
					t.Fatal("a sweep without a stop set stopped")
				}

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
	if cone, _, _ := d.RunDelta(parent, nil, nil, 0); cone != 0 {
		t.Fatalf("no seeds: cone = %d, want 0", cone)
	}
	for _, po := range parent.POs {
		if !d.Port(po).Eq(base.Port(po)) {
			t.Fatal("clean delta must expose the base values")
		}
	}
}

// TestDeltaSimStopSet checks the stop set against a reference sweep: a
// gate is in the cone when its genes changed or it reads a port whose
// recomputed vector differs from the base, and the sweep must end at the
// first cone port in the stop set that differs under the sample mask,
// having simulated exactly the cone gates up to it, with every port below
// it at its candidate value. With a nil stop set it runs to the end.
func TestDeltaSimStopSet(t *testing.T) {
	stops := 0
	for _, stim := range deltaStimuli {
		r := rand.New(rand.NewSource(31 + int64(stim)))
		for trial := 0; trial < 40; trial++ {
			numPI := 2 + r.Intn(6)
			parent := looseNetlist(r, numPI, 3+r.Intn(30), 1+r.Intn(4))
			inputs := deltaInputs(r, numPI, stim)
			words := len(inputs[0])
			tail := bits.TailMask(words*64-r.Intn(64), words)
			base := NewSimContext(parent.NumPorts(), words)
			base.Run(parent, inputs, nil)
			d := NewDeltaSim(base)
			for off := 0; off < 4; off++ {
				cand := parent.Clone()
				seeds := mutateGenes(r, cand, 1+r.Intn(4))
				ref := NewSimContext(cand.NumPorts(), words)
				ref.Run(cand, inputs, nil)
				stop := make([]bool, cand.NumPorts())
				for p := range stop {
					stop[p] = r.Intn(4) == 0
				}

				// The reference sweep.
				inCone := make([]bool, len(cand.Gates))
				for _, g := range seeds {
					inCone[g] = true
				}
				changed := func(s Signal) bool {
					g, _, ok := cand.PortOwner(s)
					return ok && inCone[g] && !ref.Port(s).Eq(base.Port(s))
				}
				wantCone, wantAt, wantStopped := 0, Signal(0), false
				for g := range cand.Gates {
					for _, in := range cand.Gates[g].In {
						inCone[g] = inCone[g] || changed(in)
					}
					if !inCone[g] {
						continue
					}
					wantCone++
					for m := 0; m < 3 && !wantStopped; m++ {
						p := cand.Port(g, m)
						if stop[p] && !bits.EqualMasked(ref.Port(p), base.Port(p), tail) {
							wantAt, wantStopped = p, true
						}
					}
					if wantStopped {
						break
					}
				}

				cone, at, stopped := d.RunDelta(cand, seeds, stop, tail)
				if cone != wantCone || at != wantAt || stopped != wantStopped {
					t.Fatalf("%d words, trial %d offspring %d: RunDelta = (cone %d, port %d, stopped %v), want (%d, %d, %v)",
						words, trial, off, cone, at, stopped, wantCone, wantAt, wantStopped)
				}
				// The stop gate's ports and every port below them hold
				// their candidate values.
				end := Signal(cand.NumPorts())
				if stopped {
					stops++
					g, _, _ := cand.PortOwner(at)
					end = cand.Port(g, 2) + 1
				}
				for s := Signal(0); s < end; s++ {
					if !d.Port(s).Eq(ref.Port(s)) {
						t.Fatalf("%d words, trial %d offspring %d: port %d diverges below the stop", words, trial, off, s)
					}
				}

				full, _, fullStopped := d.RunDelta(cand, seeds, nil, tail)
				if full < cone || fullStopped {
					t.Fatalf("nil stop set: cone %d stopped %v, want a full sweep of at least %d gates", full, fullStopped, cone)
				}
			}
		}
	}
	if stops == 0 {
		t.Fatal("no sweep ever stopped")
	}
}

// TestDeltaSimStopIgnoresTailBits builds a watched port that differs from
// the base only in the bits past the last sample, and a later one that
// differs in a sample: the sweep must pass the first and stop at the
// second, and stop at the first once every bit counts.
func TestDeltaSimStopIgnoresTailBits(t *testing.T) {
	parent := NewNetlist(2)
	and := ConfigCopy.FlipInv(0, 2) // majority 0: MAJ(a, b, ¬1) = a ∧ b
	a, b := parent.PIPort(0), parent.PIPort(1)
	parent.AddGate(Gate{In: [3]Signal{a, b, ConstPort}, Cfg: and})
	parent.AddGate(Gate{In: [3]Signal{a, b, ConstPort}, Cfg: and})
	// Two words, 100 samples: a and b agree on every sample and differ
	// only in the 28 bits past them.
	const samples = 100
	tail := bits.TailMask(samples, 2)
	r := rand.New(rand.NewSource(3))
	in := bits.RandomInputs(2, 2, r)
	copy(in[1], in[0])
	in[1][1] ^= ^tail
	base := NewSimContext(parent.NumPorts(), 2)
	base.Run(parent, in, nil)
	d := NewDeltaSim(base)

	cand := parent.Clone()
	cand.Gates[0].Cfg = ConfigCopy        // a ∨ b: differs from a ∧ b where a ≠ b
	cand.Gates[1].Cfg = and.FlipInv(0, 0) // ¬a ∧ b: differs where b = 1
	stop := make([]bool, cand.NumPorts())
	stop[cand.Port(0, 0)], stop[cand.Port(1, 0)] = true, true
	if cone, at, stopped := d.RunDelta(cand, []int32{0, 1}, stop, tail); !stopped || at != cand.Port(1, 0) || cone != 2 {
		t.Fatalf("RunDelta = (cone %d, port %d, stopped %v), want (2, %d, true)", cone, at, stopped, cand.Port(1, 0))
	}
	if cone, at, stopped := d.RunDelta(cand, []int32{0, 1}, stop, ^uint64(0)); !stopped || at != cand.Port(0, 0) || cone != 1 {
		t.Fatalf("unmasked: RunDelta = (cone %d, port %d, stopped %v), want (1, %d, true)", cone, at, stopped, cand.Port(0, 0))
	}
	stop[cand.Port(1, 0)] = false
	if cone, _, stopped := d.RunDelta(cand, []int32{0, 1}, stop, tail); stopped || cone != 2 {
		t.Fatalf("tail-only difference: RunDelta = (cone %d, stopped %v), want a full sweep of 2 gates", cone, stopped)
	}
}

// TestDeltaSimScreen checks the one-word screen against full simulation's
// word 0: a gate is in the screen's cone when its genes changed or it
// reads a port whose word 0 differs from the base, and the screen must
// stop at the first cone port in the stop set whose word 0 differs,
// returning the differing bits, and never for a difference beyond word 0.
// Each trial re-simulates the base under a second parent, so the packed
// plane must follow it, and interleaves full sweeps, which must read the
// same as without a screen.
func TestDeltaSimScreen(t *testing.T) {
	var stops, passedThenStopped int
	for _, stim := range deltaStimuli {
		r := rand.New(rand.NewSource(47 + int64(stim)))
		for trial := 0; trial < 40; trial++ {
			numPI := 2 + r.Intn(6)
			parent := looseNetlist(r, numPI, 3+r.Intn(30), 1+r.Intn(4))
			inputs := deltaInputs(r, numPI, stim)
			words := len(inputs[0])
			base := NewSimContext(parent.NumPorts(), words)
			d := NewDeltaSim(base)
			for round := 0; round < 2; round++ {
				if round > 0 {
					mutateGenes(r, parent, 1+r.Intn(4))
				}
				base.Run(parent, inputs, nil)
				for off := 0; off < 4; off++ {
					cand := parent.Clone()
					seeds := mutateGenes(r, cand, 1+r.Intn(4))
					ref := NewSimContext(cand.NumPorts(), words)
					ref.Run(cand, inputs, nil)
					stop := make([]bool, cand.NumPorts())
					for p := range stop {
						stop[p] = r.Intn(4) == 0
					}

					// The reference screen, on word 0 of the full simulation.
					inCone := make([]bool, len(cand.Gates))
					for _, g := range seeds {
						inCone[g] = true
					}
					word0 := func(s Signal) uint64 { return ref.Port(s)[0] ^ base.Port(s)[0] }
					changed := func(s Signal) bool {
						g, _, ok := cand.PortOwner(s)
						return ok && inCone[g] && word0(s) != 0
					}
					wantCone, wantAt, wantDiff := 0, Signal(0), uint64(0)
					for g := range cand.Gates {
						for _, in := range cand.Gates[g].In {
							inCone[g] = inCone[g] || changed(in)
						}
						if !inCone[g] {
							continue
						}
						wantCone++
						for m := 0; m < 3 && wantDiff == 0; m++ {
							if p := cand.Port(g, m); stop[p] && word0(p) != 0 {
								wantAt, wantDiff = p, word0(p)
							}
						}
						if wantDiff != 0 {
							break
						}
					}

					cone, at, diff := d.Screen(cand, seeds, stop)
					if cone != wantCone || at != wantAt || diff != wantDiff {
						t.Fatalf("%d words, trial %d round %d offspring %d: Screen = (cone %d, port %d, diff %#x), want (%d, %d, %#x)",
							words, trial, round, off, cone, at, diff, wantCone, wantAt, wantDiff)
					}
					for s := Signal(0); s < Signal(cand.NumPorts()); s++ {
						if d.Dirty(s) {
							t.Fatalf("%d words: port %d reads dirty after a screen", words, s)
						}
					}
					if diff != 0 {
						stops++
					}

					_, _, stopped := d.RunDelta(cand, seeds, stop, ^uint64(0))
					if diff == 0 && stopped {
						passedThenStopped++
					}
					if diff != 0 && !stopped {
						t.Fatalf("%d words: the screen stopped and the full sweep did not", words)
					}
					d.RunDelta(cand, seeds, nil, 0)
					for s := Signal(0); s < Signal(cand.NumPorts()); s++ {
						if !d.Port(s).Eq(ref.Port(s)) {
							t.Fatalf("%d words, trial %d round %d offspring %d: port %d diverges after a screen", words, trial, round, off, s)
						}
					}
				}
			}
		}
	}
	if stops == 0 || passedThenStopped == 0 {
		t.Fatalf("%d screens stopped and %d passed a candidate the full sweep stopped; want both", stops, passedThenStopped)
	}
}

// TestDeltaSimScreenPassesBeyondWord0 builds a watched port that differs
// from the base only in word 1: the screen must pass it, the full sweep
// stop at it, and Port must not serve a screened value.
func TestDeltaSimScreenPassesBeyondWord0(t *testing.T) {
	parent := NewNetlist(2)
	and := ConfigCopy.FlipInv(0, 2) // majority 0: MAJ(a, b, ¬1) = a ∧ b
	a, b := parent.PIPort(0), parent.PIPort(1)
	parent.AddGate(Gate{In: [3]Signal{a, b, ConstPort}, Cfg: and})
	// a and b agree in word 0 and are random in word 1.
	in := bits.RandomInputs(2, 2, rand.New(rand.NewSource(5)))
	in[1][0] = in[0][0]
	base := NewSimContext(parent.NumPorts(), 2)
	base.Run(parent, in, nil)
	d := NewDeltaSim(base)

	cand := parent.Clone()
	cand.Gates[0].Cfg = ConfigCopy // a ∨ b: differs from a ∧ b where a ≠ b
	stop := make([]bool, cand.NumPorts())
	stop[cand.Port(0, 0)] = true
	if cone, _, diff := d.Screen(cand, []int32{0}, stop); diff != 0 || cone != 1 {
		t.Fatalf("Screen = (cone %d, diff %#x), want a pass after 1 gate", cone, diff)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Port after a screen did not panic")
			}
		}()
		d.Port(cand.Port(0, 0))
	}()
	if _, at, stopped := d.RunDelta(cand, []int32{0}, stop, ^uint64(0)); !stopped || at != cand.Port(0, 0) {
		t.Fatalf("RunDelta = (port %d, stopped %v), want a stop at %d", at, stopped, cand.Port(0, 0))
	}

	// Differ in every bit of word 0 too: the screen stops with all of them.
	in[1][0] = ^in[0][0]
	base.Run(parent, in, nil)
	if _, at, diff := d.Screen(cand, []int32{0}, stop); at != cand.Port(0, 0) || diff != ^uint64(0) {
		t.Fatalf("Screen = (port %d, diff %#x), want every bit of word 0 at %d", at, diff, cand.Port(0, 0))
	}
}

// BenchmarkRunDelta times the dirty-cone kernel alone at cgp-hwb8's scale:
// a 1,686-gate, 8-input netlist under its exhaustive 4-word stimulus, and
// offspring of about 170 configuration flips each, the count a hwb8
// offspring gets at the default mutation rate. "full" sweeps the whole
// cone; "stop" watches the parent's primary-output ports, as the
// incremental checker does for a parent that matches every sample; and
// "screen" runs the one-word screen the checker puts before that sweep.
func BenchmarkRunDelta(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	parent := looseNetlist(r, 8, 1686, 8)
	inputs := bits.ExhaustiveInputs(8)
	base := NewSimContext(parent.NumPorts(), len(inputs[0]))
	base.Run(parent, inputs, nil)
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
	watched := make([]bool, parent.NumPorts())
	for _, po := range parent.POs {
		watched[po] = true
	}
	tail := bits.TailMask(256, len(inputs[0]))
	for _, c := range []struct {
		name string
		run  func(d *DeltaSim, i int) int
	}{
		{"full", func(d *DeltaSim, i int) int {
			n, _, _ := d.RunDelta(cands[i], seeds[i], nil, tail)
			return n
		}},
		{"stop", func(d *DeltaSim, i int) int {
			n, _, _ := d.RunDelta(cands[i], seeds[i], watched, tail)
			return n
		}},
		{"screen", func(d *DeltaSim, i int) int {
			n, _, _ := d.Screen(cands[i], seeds[i], watched)
			return n
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := NewDeltaSim(base)
			c.run(d, 0) // grow the overlay and fill the plane outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			cone := 0
			for i := 0; i < b.N; i++ {
				cone += c.run(d, i%mutants)
			}
			b.ReportMetric(float64(cone)/float64(b.N), "gates/op")
		})
	}
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
