package rqfp

import "github.com/reversible-eda/rcgp/internal/bits"

// DeltaSim re-simulates only the dirty cone of a mutated netlist on top of
// a base SimContext holding the fully simulated parent. The base must have
// been produced by a Run with active == nil (all gates simulated), so every
// base port vector is valid and the dirty cone is exactly the fan-out of
// the changed genes. Overlay vectors are epoch-tagged: each sweep bumps the
// epoch instead of clearing marks, so back-to-back offspring of the same
// parent reuse the storage with no per-call reset cost.
//
// A candidate is checked in up to two stages. Screen sweeps the cone on
// word 0 of the stimulus alone, held in a packed plane of one word per
// port, and stops at the first watched port whose word 0 differs from the
// base; one wrong sample refutes a candidate, and most refuted candidates
// show one there. RunDelta sweeps the cone at the full stimulus width.
//
// A DeltaSim is owned by one goroutine, like the SimContext it wraps.
type DeltaSim struct {
	base *SimContext
	// Overlay vectors share one flat arena (port p owns
	// arena[p*words:(p+1)*words]), mirroring the SimContext layout: the
	// whole overlay is a single allocation and dirty-cone sweeps touch
	// adjacent memory for adjacent ports. A port's overlay vector is valid
	// where mark[p] == epoch.
	arena    []uint64
	mark     []uint32 // per port: dirty in the current epoch
	gateMark []uint32 // per gate: seed-dirty in the current epoch
	epoch    uint32

	// plane packs word 0 of every base port (plane[p] for port p) and
	// screen is its overlay, valid where mark[p] == epoch after a Screen:
	// a gate's three ports are adjacent words, and a screen sweep reads
	// one word per port instead of one per stride of the stimulus width.
	// planeRuns is the base's run count when plane was filled; the next
	// Screen refills it once the base has been re-simulated.
	plane, screen []uint64
	planeRuns     uint64
	// screened records that the current epoch's marks come from Screen,
	// whose overlay holds word 0 only.
	screened bool
}

// NewDeltaSim wraps base. The overlay grows lazily with the netlists that
// RunDelta sees, and the packed plane is filled by the first Screen.
func NewDeltaSim(base *SimContext) *DeltaSim {
	return &DeltaSim{base: base, planeRuns: base.runs - 1}
}

// Dirty reports whether signal s was recomputed — with a value different
// from the base — by the last RunDelta. After a Screen, and until the next
// RunDelta, it reports false for every signal: the screen's values are
// word 0 only.
func (d *DeltaSim) Dirty(s Signal) bool {
	return !d.screened && int(s) < len(d.mark) && d.mark[s] == d.epoch
}

// Port returns the simulated vector of a signal after RunDelta: the overlay
// value where the delta diverged from the parent, the base value elsewhere.
// It panics after a Screen, until the next RunDelta, since no full vector
// of the screened candidate exists.
func (d *DeltaSim) Port(s Signal) bits.Vec {
	if d.screened {
		panic("rqfp: DeltaSim.Port read after Screen")
	}
	if d.Dirty(s) {
		w := d.base.words
		return bits.Vec(d.arena[int(s)*w : int(s+1)*w : int(s+1)*w])
	}
	return d.base.Port(s)
}

// bump starts a new epoch, clearing all marks in O(1). On uint32 wraparound
// the mark arrays are zeroed so a stale mark from 2³²−1 epochs ago cannot
// alias the new epoch.
func (d *DeltaSim) bump() {
	d.epoch++
	if d.epoch == 0 {
		for i := range d.mark {
			d.mark[i] = 0
		}
		for i := range d.gateMark {
			d.gateMark[i] = 0
		}
		d.epoch = 1
	}
}

func (d *DeltaSim) grow(numPorts, numGates int) {
	if len(d.mark) < numPorts {
		arena := make([]uint64, numPorts*d.base.words)
		copy(arena, d.arena)
		d.arena = arena
		for len(d.mark) < numPorts {
			d.mark = append(d.mark, 0)
		}
	}
	for len(d.gateMark) < numGates {
		d.gateMark = append(d.gateMark, 0)
	}
}

// syncPlane refills the packed word-0 plane from the base when the base
// has been re-simulated since the last fill.
func (d *DeltaSim) syncPlane() {
	if d.planeRuns == d.base.runs {
		return
	}
	w, n := d.base.words, d.base.numPorts
	if len(d.plane) < n {
		d.plane = make([]uint64, n)
		d.screen = make([]uint64, n)
	}
	for p := 0; p < n; p++ {
		d.plane[p] = d.base.arena[p*w]
	}
	d.planeRuns = d.base.runs
}

// Screen simulates the candidate's dirty cone on word 0 of the stimulus
// alone, with the cone rule of RunDelta: a gate is re-simulated when its
// genes changed (it appears in seedGates, duplicates allowed) or when it
// reads a port whose word 0 diverged from the base. The sweep ends at the
// first recomputed port p with stop[p] whose word 0 differs from the base,
// and returns that port and the bits of word 0 in which it differs; diff
// is zero when no watched port differs in word 0. Word 0 is compared
// whole, so the caller screens only when every bit of it is a sample.
//
// cone is the number of gates simulated before the sweep ended. Screen
// leaves Dirty and Port unusable until the next RunDelta. The candidate
// must share the parent's shape; stop must cover its ports.
func (d *DeltaSim) Screen(n *Netlist, seedGates []int32, stop []bool) (cone int, at Signal, diff uint64) {
	d.grow(n.NumPorts(), len(n.Gates))
	d.syncPlane()
	d.bump()
	d.screened = true
	epoch := d.epoch
	for _, g := range seedGates {
		d.gateMark[g] = epoch
	}
	par, over := d.plane, d.screen
	for g := range n.Gates {
		gate := &n.Gates[g]
		in0, in1, in2 := gate.In[0], gate.In[1], gate.In[2]
		dirty0, dirty1, dirty2 := d.mark[in0] == epoch, d.mark[in1] == epoch, d.mark[in2] == epoch
		if d.gateMark[g] != epoch && !dirty0 && !dirty1 && !dirty2 {
			continue
		}
		cone++
		p, q, r := par[in0], par[in1], par[in2]
		if dirty0 {
			p = over[in0]
		}
		if dirty1 {
			q = over[in1]
		}
		if dirty2 {
			r = over[in2]
		}
		// The inversion masks of RunDelta, applied to one word.
		c := uint64(gate.Cfg)
		m0 := maj(p^-(c>>8&1), q^-(c>>5&1), r^-(c>>2&1))
		m1 := maj(p^-(c>>7&1), q^-(c>>4&1), r^-(c>>1&1))
		m2 := maj(p^-(c>>6&1), q^-(c>>3&1), r^-(c&1))
		s := int(n.GateBase(g))
		o, b := over[s:s+3:s+3], par[s:s+3:s+3]
		o[0], o[1], o[2] = m0, m1, m2
		diff0, diff1, diff2 := m0^b[0], m1^b[1], m2^b[2]
		d.mark[s], d.mark[s+1], d.mark[s+2] = dirtyMark(diff0, epoch), dirtyMark(diff1, epoch), dirtyMark(diff2, epoch)
		switch {
		case diff0 != 0 && stop[s]:
			return cone, Signal(s), diff0
		case diff1 != 0 && stop[s+1]:
			return cone, Signal(s + 1), diff1
		case diff2 != 0 && stop[s+2]:
			return cone, Signal(s + 2), diff2
		}
	}
	return cone, 0, 0
}

// maj is the bitwise three-input majority.
func maj(x, y, z uint64) uint64 { return x&y | x&z | y&z }

// RunDelta simulates the candidate netlist incrementally against the
// resident parent: a single ascending sweep re-simulates a gate when its
// genes changed (it appears in seedGates, duplicates allowed) or when it
// reads a port whose value diverged from the parent. Output ports are
// marked dirty only when the recomputed vector actually differs from the
// base, which prunes cones behind semantically neutral gene changes.
// Gates the candidate leaves inactive are simulated like any other cone
// gate; their values are never read.
//
// stop, when non-nil, is a per-port stop set: the sweep ends at the first
// recomputed port p with stop[p] whose vector differs from the base in the
// bits under the sample mask (all words, the last one masked by tail), and
// returns that port with stopped true. The gates above it are not
// simulated, so after a stopped sweep only the ports of the stop port's
// gate and of the gates below it read their candidate values. A
// difference outside the mask does not stop the sweep. With a nil stop set
// (tail is then unused) the sweep always runs to the end.
//
// cone is the number of gates simulated before the sweep ended.
//
// Each re-simulated gate runs one fused pass over the stimulus words: it
// loads each input word once, from the overlay or the base arena by the
// input's mark, stores the three majorities into the gate's three adjacent
// overlay vectors, and ORs each output's XOR against the base into a diff
// word. SimContext.RunTagged, the full path, computes the same vectors
// with bits.MajInv and serves as the reference the tests compare against.
//
// The candidate must share the parent's shape (same NumPI and gate count),
// which the CGP point mutations guarantee; stop must cover its ports.
func (d *DeltaSim) RunDelta(n *Netlist, seedGates []int32, stop []bool, tail uint64) (cone int, at Signal, stopped bool) {
	d.grow(n.NumPorts(), len(n.Gates))
	d.bump()
	d.screened = false
	epoch := d.epoch
	for _, g := range seedGates {
		d.gateMark[g] = epoch
	}
	w := d.base.words
	over, par := d.arena, d.base.arena
	for g := range n.Gates {
		gate := &n.Gates[g]
		in0, in1, in2 := int(gate.In[0]), int(gate.In[1]), int(gate.In[2])
		dirty0, dirty1, dirty2 := d.mark[in0] == epoch, d.mark[in1] == epoch, d.mark[in2] == epoch
		if d.gateMark[g] != epoch && !dirty0 && !dirty1 && !dirty2 {
			continue
		}
		cone++
		// Every vector is re-sliced to len(o0), so the word loop below
		// runs without bounds checks.
		s := int(n.GateBase(g))
		o0 := over[s*w : (s+1)*w]
		o1 := over[(s+1)*w : (s+2)*w][:len(o0)]
		o2 := over[(s+2)*w : (s+3)*w][:len(o0)]
		b0 := par[s*w : (s+1)*w][:len(o0)]
		b1 := par[(s+1)*w : (s+2)*w][:len(o0)]
		b2 := par[(s+2)*w : (s+3)*w][:len(o0)]
		v0, v1, v2 := par, par, par
		if dirty0 {
			v0 = over
		}
		if dirty1 {
			v1 = over
		}
		if dirty2 {
			v2 = over
		}
		v0 = v0[in0*w : (in0+1)*w][:len(o0)]
		v1 = v1[in1*w : (in1+1)*w][:len(o0)]
		v2 = v2[in2*w : (in2+1)*w][:len(o0)]
		// Configuration bit 8-3j-m inverts input j of majority m (see
		// Config.Inv); decode each into an all-ones or all-zero XOR mask.
		c := uint64(gate.Cfg)
		x00, x01, x02 := -(c >> 8 & 1), -(c >> 5 & 1), -(c >> 2 & 1)
		x10, x11, x12 := -(c >> 7 & 1), -(c >> 4 & 1), -(c >> 1 & 1)
		x20, x21, x22 := -(c >> 6 & 1), -(c >> 3 & 1), -(c & 1)
		var diff0, diff1, diff2 uint64
		for i := range o0 {
			p, q, r := v0[i], v1[i], v2[i]
			x, y, z := p^x00, q^x01, r^x02
			m0 := x&y | x&z | y&z
			x, y, z = p^x10, q^x11, r^x12
			m1 := x&y | x&z | y&z
			x, y, z = p^x20, q^x21, r^x22
			m2 := x&y | x&z | y&z
			o0[i], o1[i], o2[i] = m0, m1, m2
			diff0 |= m0 ^ b0[i]
			diff1 |= m1 ^ b1[i]
			diff2 |= m2 ^ b2[i]
		}
		// A port whose vector equals the base stays clean, so the gates
		// downstream of it are not re-simulated.
		d.mark[s], d.mark[s+1], d.mark[s+2] = dirtyMark(diff0, epoch), dirtyMark(diff1, epoch), dirtyMark(diff2, epoch)
		if stop == nil || diff0|diff1|diff2 == 0 {
			continue
		}
		// The diff words cover the tail bits too; a watched port that
		// differs is re-compared under the mask, which is rare.
		switch {
		case diff0 != 0 && stop[s] && !bits.EqualMasked(o0, b0, tail):
			return cone, Signal(s), true
		case diff1 != 0 && stop[s+1] && !bits.EqualMasked(o1, b1, tail):
			return cone, Signal(s + 1), true
		case diff2 != 0 && stop[s+2] && !bits.EqualMasked(o2, b2, tail):
			return cone, Signal(s + 2), true
		}
	}
	return cone, 0, false
}

// dirtyMark is the mark of an output port whose recomputed vector differs
// from the base in the bits of diff: the epoch if any bit differs, else 0.
func dirtyMark(diff uint64, epoch uint32) uint32 {
	if diff != 0 {
		return epoch
	}
	return 0
}

// PhenotypeEqual reports whether two equally-shaped netlists have the
// identical phenotype: the same primary-output genes, the same active-gate
// masks, and gene-identical active gates. Equality is exact (no hashing),
// so a true result soundly implies identical simulated behavior AND
// identical cost metrics — the dedup test of the incremental evaluator.
// The active masks must come from ActiveGates (or CostEvaluator.Active) of
// the respective netlists.
func PhenotypeEqual(a, b *Netlist, activeA, activeB []bool) bool {
	if a.NumPI != b.NumPI || len(a.Gates) != len(b.Gates) || len(a.POs) != len(b.POs) {
		return false
	}
	for i := range a.POs {
		if a.POs[i] != b.POs[i] {
			return false
		}
	}
	for g := range a.Gates {
		if activeA[g] != activeB[g] {
			return false
		}
		if activeA[g] && a.Gates[g] != b.Gates[g] {
			return false
		}
	}
	return true
}
