package core

import (
	"math/rand"

	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// genotype is a chromosome: the netlist plus the port-usage table that the
// swap mutation needs to preserve the single-fanout invariant without
// rescanning the whole circuit.
type genotype struct {
	net   *rqfp.Netlist
	users []rqfp.PortUser
	// stats, when non-nil, receives per-kind attempt/accept counts from
	// mutateOnce. Plain increments keep the hot loop allocation-free; the
	// parallel engine gives every offspring slot its own stats struct and
	// merges them in the single-goroutine reducer, so no increment is ever
	// shared between goroutines.
	stats *MutationStats
	// dirtyGates/dirtyPOs record which gates and primary outputs had genes
	// changed since the last copyFrom or undo (duplicates allowed) — the
	// mutation delta the incremental evaluator re-simulates — and
	// dirtyUsers the ports whose users entry changed. Appends reuse
	// capacity, so recording costs nothing measurable even when unused.
	dirtyGates []int32
	dirtyPOs   []int32
	dirtyUsers []rqfp.Signal
	// epoch is the parent epoch reset last copied g from (0: none).
	epoch uint64
}

func newGenotype(n *rqfp.Netlist) *genotype {
	return &genotype{net: n, users: n.Users()}
}

func (g *genotype) clone() *genotype {
	return &genotype{
		net:   g.net.Clone(),
		users: append([]rqfp.PortUser(nil), g.users...),
	}
}

// copyFrom overwrites g with p's state, reusing g's storage, and resets
// the recorded mutation delta.
func (g *genotype) copyFrom(p *genotype) {
	g.net.NumPI = p.net.NumPI
	g.net.Gates = append(g.net.Gates[:0], p.net.Gates...)
	g.net.POs = append(g.net.POs[:0], p.net.POs...)
	g.users = append(g.users[:0], p.users...)
	g.forget()
}

// undo restores from p the genes and users entries recorded since the
// last copyFrom or undo, and resets the record. It makes g equal to p only
// when g was p plus the recorded changes: p must be the genotype g was
// last copied from, unchanged since.
func (g *genotype) undo(p *genotype) {
	for _, i := range g.dirtyGates {
		g.net.Gates[i] = p.net.Gates[i]
	}
	for _, i := range g.dirtyPOs {
		g.net.POs[i] = p.net.POs[i]
	}
	for _, s := range g.dirtyUsers {
		g.users[s] = p.users[s]
	}
	g.forget()
}

// forget resets the recorded mutation delta.
func (g *genotype) forget() {
	g.dirtyGates = g.dirtyGates[:0]
	g.dirtyPOs = g.dirtyPOs[:0]
	g.dirtyUsers = g.dirtyUsers[:0]
}

// reset makes g a copy of p, the parent of the given epoch. An epoch is
// one parent individual, unchanged while it lasts: while it is the epoch g
// was last copied from, undoing g's own mutation restores p; after an
// adoption, a shrink or a migration g is copied in full.
func (g *genotype) reset(p *genotype, epoch uint64) {
	if g.epoch == epoch {
		g.undo(p)
		return
	}
	g.copyFrom(p)
	g.epoch = epoch
}

// numGenes is the chromosome length n_L = 4·n_gates + n_po (three input
// genes plus one inverter-configuration gene per gate, one gene per PO).
func (g *genotype) numGenes() int {
	return 4*len(g.net.Gates) + len(g.net.POs)
}

// mutateOnce applies one random point mutation (§3.2.2). It returns false
// when the sampled mutation was a no-op or structurally illegal (those
// count as "no change", matching the paper's swap rule that only fires when
// legal). The single-fanout and topological invariants always hold on exit.
func (g *genotype) mutateOnce(r *rand.Rand) bool {
	n := g.net
	total := g.numGenes()
	if total == 0 {
		return false
	}
	idx := r.Intn(total)
	var kind MutationKind
	var applied bool
	if idx < 4*len(n.Gates) {
		gate, field := idx/4, idx%4
		if field == 3 {
			// Inverter configuration: f' = f ⊕ (1 << β), β ∈ [0,9).
			kind = MutConfig
			beta := r.Intn(9)
			n.Gates[gate].Cfg = n.Gates[gate].Cfg.FlipBit(beta)
			g.dirtyGates = append(g.dirtyGates, int32(gate))
			applied = true
		} else {
			kind = MutGateInput
			applied = g.reconnectInput(gate, field, r)
		}
	} else {
		kind = MutPO
		applied = g.reconnectPO(idx-4*len(n.Gates), r)
	}
	if g.stats != nil {
		g.stats.Attempts[kind]++
		if applied {
			g.stats.Applied[kind]++
		}
	}
	return applied
}

// reconnectInput rewires input `field` of gate `gate` to a random earlier
// port, swapping with the port's current user when necessary.
func (g *genotype) reconnectInput(gate, field int, r *rand.Rand) bool {
	n := g.net
	old := n.Gates[gate].In[field]
	limit := int(n.GateBase(gate))
	v := rqfp.Signal(r.Intn(limit))
	if v == old {
		return false
	}
	self := rqfp.PortUser{Kind: rqfp.UserGateInput, Gate: int32(gate), Input: uint8(field)}
	return g.rewire(old, v, self)
}

// reconnectPO rewires primary output po to a random port.
func (g *genotype) reconnectPO(po int, r *rand.Rand) bool {
	n := g.net
	old := n.POs[po]
	v := rqfp.Signal(r.Intn(n.NumPorts()))
	if v == old {
		return false
	}
	self := rqfp.PortUser{Kind: rqfp.UserPO, PO: int32(po)}
	return g.rewire(old, v, self)
}

// rewire moves `self` from port `old` to port `v`. If v is already driven
// into another user, the two users swap sources (paper rule 1); if v is the
// constant or dangling, it is assigned directly (rule 2).
//
// When the swap would break the topological order for the other user, a
// gate-input mutation is skipped. A primary-output mutation instead steals
// the port and reconnects the other user to the constant — the paper's
// Fig. 3(b) updates the PO gene "directly" even though the target port is
// still referenced by a (useless) node, and the constant fallback gives the
// same phenotype while keeping the genotype single-fanout invariant intact.
func (g *genotype) rewire(old, v rqfp.Signal, self rqfp.PortUser) bool {
	n := g.net
	var other rqfp.PortUser
	if v != rqfp.ConstPort {
		other = g.users[v]
	}
	if v == rqfp.ConstPort || other.Kind == rqfp.UserNone {
		g.setSource(self, v)
		if v != rqfp.ConstPort {
			g.setUser(v, self)
		}
		if old != rqfp.ConstPort {
			g.setUser(old, rqfp.PortUser{})
		}
		return true
	}
	if other == self {
		return false
	}
	// Swap: `other` takes old. Check the topological constraint for gate
	// users (the constant is always legal).
	swapLegal := true
	if other.Kind == rqfp.UserGateInput && old != rqfp.ConstPort {
		swapLegal = old < n.GateBase(int(other.Gate))
	}
	switch {
	case swapLegal:
		g.setSource(self, v)
		g.setSource(other, old)
		g.setUser(v, self)
		if old != rqfp.ConstPort {
			g.setUser(old, other)
		}
		return true
	case self.Kind == rqfp.UserPO:
		// Steal: the PO takes v, the blocked user falls back to the
		// constant, old dangles.
		g.setSource(self, v)
		g.setSource(other, rqfp.ConstPort)
		g.setUser(v, self)
		if old != rqfp.ConstPort {
			g.setUser(old, rqfp.PortUser{})
		}
		return true
	default:
		return false
	}
}

// setSource writes a new source gene for the given user — the single
// choke point every rewire goes through, so it also records the mutation
// delta for incremental evaluation.
func (g *genotype) setSource(u rqfp.PortUser, s rqfp.Signal) {
	switch u.Kind {
	case rqfp.UserGateInput:
		g.net.Gates[u.Gate].In[u.Input] = s
		g.dirtyGates = append(g.dirtyGates, u.Gate)
	case rqfp.UserPO:
		g.net.POs[u.PO] = s
		g.dirtyPOs = append(g.dirtyPOs, u.PO)
	}
}

// setUser records u as the user of port p, and p as a changed users entry.
func (g *genotype) setUser(p rqfp.Signal, u rqfp.PortUser) {
	g.users[p] = u
	g.dirtyUsers = append(g.dirtyUsers, p)
}

// mutate applies up to maxGenes point mutations (the paper draws the
// mutation count uniformly with maximum μ·n_L) and returns the number that
// actually changed the chromosome.
func (g *genotype) mutate(r *rand.Rand, rate float64) int {
	maxM := int(rate * float64(g.numGenes()))
	if maxM < 1 {
		maxM = 1
	}
	m := 1 + r.Intn(maxM)
	changed := 0
	for i := 0; i < m; i++ {
		if g.mutateOnce(r) {
			changed++
		}
	}
	return changed
}
