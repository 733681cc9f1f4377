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
// computes the same function in both, so it is built once and both sides
// use it; a cone gate is built once with the parent's genes and once with
// the child's. Every majority goes through a structural hash, so a cone
// gate whose child copy is structurally the parent's collapses onto it, and
// most offspring end with identical PO literals.
//
// The hash runs as a structural pass that writes no clauses: each new
// majority node gets the variable a CNF builder would give it and is
// recorded, so an offspring whose PO literals all match is proved with no
// builder and no solver. Otherwise a fresh builder allocates the pass's
// variables, then writes the recorded nodes' clauses in recording order.
// That is the CNF of a sweep that writes each node's clauses as it
// allocates the node: the only level-0 assignment is the constant, which
// fills at most one slot of a hashed majority, so no node clause is unit
// and adding one assigns nothing.
//
// The tables are per-check scratch, kept between checks so a check does
// not reallocate them; the CNF builder is built only when an output pair
// differs.
type parentMiter struct {
	parentLit []sat.Lit // per port, parent side
	childLit  []sat.Lit // per port, child side; parentLit's outside the cone
	cone      []bool    // per gate
	strash    map[[3]sat.Lit]sat.Lit
	// nodes are the majority nodes of the pass in variable order; vars is
	// the number of variables numbered so far, the constant and the PIs
	// included.
	nodes []majNode
	vars  int
	// parentOut and childOut are the PO literal pairs that differ.
	parentOut, childOut []sat.Lit
}

// majNode is a recorded majority node: out ↔ MAJ(in[0], in[1], in[2]).
type majNode struct {
	out sat.Lit
	in  [3]sat.Lit
}

// constTrue is the builder's constant-true literal: variable 0, positive.
const constTrue sat.Lit = 0

// prove decides whether child computes the same function as parent, whose
// genes it shares except at dirtyGates and the POs. The active masks select
// the gates to build. A non-nil error — the context's — means no verdict
// was reached. hashed reports a proof by the structural pass alone, with
// no CNF and zero solver counters; otherwise the solver's counters are
// returned.
func (m *parentMiter) prove(ctx context.Context, parent, child *rqfp.Netlist, parentActive, childActive []bool, dirtyGates []int32) (eq, hashed bool, _ sat.Stats, _ error) {
	if err := ctx.Err(); err != nil {
		return false, false, sat.Stats{}, err
	}
	if m.sweep(parent, child, parentActive, childActive, dirtyGates) {
		return true, true, sat.Stats{}, nil
	}
	s := m.miter()
	s.SetContext(ctx)
	status, err := s.Solve()
	return err == nil && status == sat.Unsat, false, s.Counters(), err
}

// sweep is the structural pass. It reports whether every PO literal pair
// matches; when one differs, the differing pairs are in parentOut and
// childOut.
func (m *parentMiter) sweep(parent, child *rqfp.Netlist, parentActive, childActive []bool, dirtyGates []int32) bool {
	m.reset(child)
	m.parentLit[rqfp.ConstPort] = constTrue
	m.childLit[rqfp.ConstPort] = constTrue
	for i := 0; i < child.NumPI; i++ {
		l := sat.MkLit(1+i, false)
		m.parentLit[child.PIPort(i)] = l
		m.childLit[child.PIPort(i)] = l
	}
	for _, g := range dirtyGates {
		m.cone[g] = true
	}
	// Gates are in topological order, so one ascending sweep closes the
	// cone over fan-out and builds every gate after its fanins.
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
			// In neither phenotype: not built.
		case !m.cone[g]:
			m.hashGate(child, g, gate, m.parentLit)
			base := child.GateBase(g)
			copy(m.childLit[base:base+3], m.parentLit[base:base+3])
		default:
			if parentActive[g] {
				m.hashGate(child, g, &parent.Gates[g], m.parentLit)
			}
			if childActive[g] {
				m.hashGate(child, g, gate, m.childLit)
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
	return len(m.parentOut) == 0
}

// reset starts a check on a netlist of n's shape: no nodes, the constant
// and n's PIs as the only variables, empty cone marks and hash, and
// literal tables sized for n's ports.
func (m *parentMiter) reset(n *rqfp.Netlist) {
	ports, gates := n.NumPorts(), len(n.Gates)
	m.parentLit = slices.Grow(m.parentLit[:0], ports)[:ports]
	m.childLit = slices.Grow(m.childLit[:0], ports)[:ports]
	m.cone = slices.Grow(m.cone[:0], gates)[:gates]
	clear(m.cone)
	if m.strash == nil {
		m.strash = make(map[[3]sat.Lit]sat.Lit)
	}
	clear(m.strash)
	m.nodes = m.nodes[:0]
	m.vars = 1 + n.NumPI
}

// hashGate sets the three output literals of gate g, configured by gate's
// genes, from the literals of its fanins in lit.
func (m *parentMiter) hashGate(n *rqfp.Netlist, g int, gate *rqfp.Gate, lit []sat.Lit) {
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
// MAJ(x, ¬x, y) = y need no node. Otherwise a node already recorded for
// the triple, or for its complement (MAJ is self-dual:
// MAJ(¬x, ¬y, ¬z) = ¬MAJ(x, y, z)), is reused before a new node is
// recorded on the next variable.
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
	o := sat.MkLit(m.vars, false)
	m.vars++
	m.nodes = append(m.nodes, majNode{out: o, in: key})
	m.strash[key] = o
	return o
}

// build returns a fresh builder holding the pass's variables and the
// recorded nodes' clauses, written in recording order.
func (m *parentMiter) build() *cnf.Builder {
	b := cnf.NewBuilder()
	for v := 1; v < m.vars; v++ {
		b.Lit()
	}
	for _, n := range m.nodes {
		b.DefineMaj(n.out, n.in[0], n.in[1], n.in[2])
	}
	return b
}

// miter returns a fresh solver holding the built nodes and the miter that
// asserts some differing PO pair differs.
func (m *parentMiter) miter() *sat.Solver {
	b := m.build()
	b.AddClause(b.MiterOutputs(m.parentOut, m.childOut))
	return b.S
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
	eq, hashed, solver, err := inc.miter.prove(ctx, inc.parent, n, inc.parentActive, active, dirtyGates)
	if hashed {
		st.StructuralProved++
	}
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
