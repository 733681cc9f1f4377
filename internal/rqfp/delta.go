package rqfp

import "github.com/reversible-eda/rcgp/internal/bits"

// DeltaSim re-simulates only the dirty cone of a mutated netlist on top of
// a base SimContext holding the fully simulated parent. The base must have
// been produced by a Run with active == nil (all gates simulated), so every
// base port vector is valid and the dirty cone is exactly the fan-out of
// the changed genes. Overlay vectors are epoch-tagged: RunDelta bumps the
// epoch instead of clearing marks, so back-to-back offspring of the same
// parent reuse the storage with no per-call reset cost.
//
// A DeltaSim is owned by one goroutine, like the SimContext it wraps.
type DeltaSim struct {
	base *SimContext
	// Overlay vectors share one flat arena (port p owns
	// arena[p*words:(p+1)*words]), mirroring the SimContext layout: the
	// whole overlay is a single allocation and dirty-cone sweeps touch
	// adjacent memory for adjacent ports.
	arena    []uint64
	overlay  []bits.Vec // per port; valid where mark[s] == epoch
	mark     []uint32   // per port: dirty in the current epoch
	gateMark []uint32   // per gate: seed-dirty in the current epoch
	epoch    uint32
}

// NewDeltaSim wraps base. The overlay grows lazily with the netlists that
// RunDelta sees.
func NewDeltaSim(base *SimContext) *DeltaSim {
	return &DeltaSim{base: base}
}

// Dirty reports whether signal s was recomputed — with a value different
// from the base — by the last RunDelta.
func (d *DeltaSim) Dirty(s Signal) bool {
	return int(s) < len(d.mark) && d.mark[s] == d.epoch
}

// Port returns the simulated vector of a signal after RunDelta: the overlay
// value where the delta diverged from the parent, the base value elsewhere.
func (d *DeltaSim) Port(s Signal) bits.Vec {
	if d.Dirty(s) {
		return d.overlay[s]
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
	if len(d.overlay) < numPorts {
		words := d.base.Words()
		arena := make([]uint64, numPorts*words)
		copy(arena, d.arena)
		overlay := make([]bits.Vec, numPorts)
		for i := range overlay {
			overlay[i] = bits.Vec(arena[i*words : (i+1)*words : (i+1)*words])
		}
		d.arena = arena
		d.overlay = overlay
		for len(d.mark) < numPorts {
			d.mark = append(d.mark, 0)
		}
	}
	for len(d.gateMark) < numGates {
		d.gateMark = append(d.gateMark, 0)
	}
}

// RunDelta simulates the candidate netlist incrementally against the
// resident parent: a single ascending sweep re-simulates a gate when its
// genes changed (it appears in seedGates, duplicates allowed) or when it
// reads a port whose value diverged from the parent. Output ports are
// marked dirty only when the recomputed vector actually differs from the
// base, which prunes cones behind semantically neutral gene changes. Gates
// inactive in the candidate (active non-nil) are skipped: they cannot reach
// a PO, so their stale values are never read. Returns the number of gates
// re-simulated — the cone size.
//
// The candidate must share the parent's shape (same NumPI and gate count),
// which the CGP point mutations guarantee.
func (d *DeltaSim) RunDelta(n *Netlist, seedGates []int32, active []bool) int {
	d.grow(n.NumPorts(), len(n.Gates))
	d.bump()
	for _, g := range seedGates {
		d.gateMark[g] = d.epoch
	}
	cone := 0
	for g := range n.Gates {
		if active != nil && !active[g] {
			continue
		}
		gate := &n.Gates[g]
		if d.gateMark[g] != d.epoch &&
			d.mark[gate.In[0]] != d.epoch &&
			d.mark[gate.In[1]] != d.epoch &&
			d.mark[gate.In[2]] != d.epoch {
			continue
		}
		cone++
		v0 := d.Port(gate.In[0])
		v1 := d.Port(gate.In[1])
		v2 := d.Port(gate.In[2])
		base := n.GateBase(g)
		for m := 0; m < 3; m++ {
			s := base + Signal(m)
			out := d.overlay[s]
			x0, x1, x2 := gate.Cfg.InvMasks(m)
			bits.MajInv(out, v0, v1, v2, x0, x1, x2)
			if out.Eq(d.base.Port(s)) {
				d.mark[s] = 0 // value unchanged: downstream stays clean
			} else {
				d.mark[s] = d.epoch
			}
		}
	}
	return cone
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
