package cec

import (
	"context"
	"slices"
	"time"

	"github.com/reversible-eda/rcgp/internal/cnf"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/sat"
)

// parentMiter proves an offspring equal to its resident parent. The two
// netlists share every gene outside the mutated cone: the dirty gates plus
// every gate that reads a port of a cone gate. A gate outside the cone
// computes the same function in both, so it is encoded once and both sides
// use it; a cone gate is encoded once with the parent's genes and once with
// the child's. Every majority goes through a structural hash, so a cone
// gate whose child copy is structurally the parent's collapses onto it, and
// most offspring end with identical PO literals and no solver call.
//
// The tables are per-check scratch, kept between checks so a check does
// not reallocate them; the CNF builder is fresh per check.
type parentMiter struct {
	b         *cnf.Builder
	parentLit []sat.Lit // per port, parent side
	childLit  []sat.Lit // per port, child side; parentLit's outside the cone
	cone      []bool    // per gate
	strash    map[[3]sat.Lit]sat.Lit
	// parentOut and childOut are the PO literal pairs that differ.
	parentOut, childOut []sat.Lit
}

// prove decides whether child computes the same function as parent, whose
// genes it shares except at dirtyGates and the POs. The active masks select
// the gates to encode. A non-nil error — the context's — means no verdict
// was reached. The solver's counters are returned (zero when no PO literal
// differed and the solver was not called).
func (m *parentMiter) prove(ctx context.Context, parent, child *rqfp.Netlist, parentActive, childActive []bool, dirtyGates []int32) (bool, sat.Stats, error) {
	if err := ctx.Err(); err != nil {
		return false, sat.Stats{}, err
	}
	m.reset(child)
	for i := 0; i < child.NumPI; i++ {
		l := m.b.Lit()
		m.parentLit[child.PIPort(i)] = l
		m.childLit[child.PIPort(i)] = l
	}
	m.parentLit[rqfp.ConstPort] = m.b.ConstTrue
	m.childLit[rqfp.ConstPort] = m.b.ConstTrue
	for _, g := range dirtyGates {
		m.cone[g] = true
	}
	// Gates are in topological order, so one ascending sweep closes the
	// cone over fan-out and encodes every gate after its fanins.
	for g := range child.Gates {
		gate := &child.Gates[g]
		if !m.cone[g] {
			for _, in := range gate.In {
				if owner, _, ok := child.PortOwner(in); ok && m.cone[owner] {
					m.cone[g] = true
					break
				}
			}
		}
		switch {
		case !parentActive[g] && !childActive[g]:
			// In neither phenotype: not encoded.
		case !m.cone[g]:
			m.encode(child, g, gate, m.parentLit)
			base := child.GateBase(g)
			copy(m.childLit[base:base+3], m.parentLit[base:base+3])
		default:
			if parentActive[g] {
				m.encode(child, g, &parent.Gates[g], m.parentLit)
			}
			if childActive[g] {
				m.encode(child, g, gate, m.childLit)
			}
		}
	}
	m.parentOut, m.childOut = m.parentOut[:0], m.childOut[:0]
	for i, po := range child.POs {
		if p, c := m.parentLit[parent.POs[i]], m.childLit[po]; p != c {
			m.parentOut = append(m.parentOut, p)
			m.childOut = append(m.childOut, c)
		}
	}
	if len(m.parentOut) == 0 {
		return true, sat.Stats{}, nil
	}
	m.b.AddClause(m.b.MiterOutputs(m.parentOut, m.childOut))
	m.b.S.SetContext(ctx)
	status, err := m.b.S.Solve()
	return err == nil && status == sat.Unsat, m.b.S.Counters(), err
}

// reset starts a check on a netlist of n's shape: a fresh builder, empty
// cone marks and hash, and literal tables sized for n's ports.
func (m *parentMiter) reset(n *rqfp.Netlist) {
	m.b = cnf.NewBuilder()
	ports, gates := n.NumPorts(), len(n.Gates)
	m.parentLit = slices.Grow(m.parentLit[:0], ports)[:ports]
	m.childLit = slices.Grow(m.childLit[:0], ports)[:ports]
	m.cone = slices.Grow(m.cone[:0], gates)[:gates]
	clear(m.cone)
	if m.strash == nil {
		m.strash = make(map[[3]sat.Lit]sat.Lit)
	}
	clear(m.strash)
}

// encode sets the three output literals of gate g, configured by gate's
// genes, from the literals of its fanins in lit.
func (m *parentMiter) encode(n *rqfp.Netlist, g int, gate *rqfp.Gate, lit []sat.Lit) {
	for k := 0; k < 3; k++ {
		var in [3]sat.Lit
		for j := 0; j < 3; j++ {
			in[j] = lit[gate.In[j]]
			if gate.Cfg.Inv(k, j) {
				in[j] = in[j].Not()
			}
		}
		lit[n.Port(g, k)] = m.maj(in[0], in[1], in[2])
	}
}

// maj returns a literal for MAJ(x, y, z). The fanins are sorted, so equal
// and complementary ones sit side by side: MAJ(x, x, y) = x and
// MAJ(x, ¬x, y) = y need no node. Otherwise a node already built for the
// triple, or for its complement (MAJ is self-dual:
// MAJ(¬x, ¬y, ¬z) = ¬MAJ(x, y, z)), is reused before clauses are added.
func (m *parentMiter) maj(x, y, z sat.Lit) sat.Lit {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y, z = z, y
	}
	if x > y {
		x, y = y, x
	}
	switch {
	case x == y || y == z:
		return y
	case x == y.Not():
		return z
	case y == z.Not():
		return x
	}
	key := [3]sat.Lit{x, y, z}
	if o, ok := m.strash[key]; ok {
		return o
	}
	// Complementing distinct variables keeps them sorted.
	if o, ok := m.strash[[3]sat.Lit{x.Not(), y.Not(), z.Not()}]; ok {
		return o.Not()
	}
	o := m.b.Maj(x, y, z)
	m.strash[key] = o
	return o
}

// proveAgainstParent confirms an offspring that passed the simulation
// screen, taking the place of Spec.satCheck. The resident parent is proved
// equal to the spec, so an offspring equal to the parent is equal to the
// spec. An offspring unequal to the parent is unequal to the spec, and the
// spec miter (Prove) then runs for its verdict and counterexample: those
// are exactly what satCheck returns, so every trajectory stays the same.
// One SAT verdict is recorded, with the counters of both solves.
func (inc *Incremental) proveAgainstParent(ctx context.Context, n *rqfp.Netlist, dirtyGates []int32, active []bool) Verdict {
	s, st := inc.spec, &inc.stats
	st.Checks++
	start := time.Now()
	eq, solver, err := inc.miter.prove(ctx, inc.parent, n, inc.parentActive, active, dirtyGates)
	var cex []bool
	if err == nil && !eq {
		var spec sat.Stats
		eq, cex, spec, err = Prove(ctx, s.specAIG, n)
		solver.Add(spec)
	}
	aborted := s.recordSAT(ctx, start, eq, solver, err, st)
	if eq {
		return Verdict{Match: 1, Proved: true}
	}
	return Verdict{Match: 1, Counterexample: cex, Aborted: aborted}
}
