// Package bdd implements reduced ordered binary decision diagrams with a
// hash-consed unique table and a memoized ITE core. In the CGP literature
// the paper builds on, BDD-based fitness evaluation (Vasicek & Sekanina)
// was the step between exhaustive simulation and SAT-backed verification;
// this package provides that middle oracle: symbolic evaluation of AIGs
// and RQFP netlists, canonical equivalence by pointer comparison, and
// model counting.
package bdd

import (
	"fmt"
	"math"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// Ref is a BDD node reference. The terminals are False = 0 and True = 1.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int32 // variable index; terminals use a sentinel
	lo, hi Ref
}

const terminalLevel = int32(1) << 30

// Manager owns the shared node store for one variable ordering.
type Manager struct {
	numVars int
	nodes   []node
	unique  map[node]Ref
	iteMemo map[[3]Ref]Ref
}

// New creates a manager over n variables (fixed natural ordering).
func New(n int) *Manager {
	m := &Manager{
		numVars: n,
		unique:  make(map[node]Ref),
		iteMemo: make(map[[3]Ref]Ref),
	}
	m.nodes = append(m.nodes,
		node{level: terminalLevel}, // False
		node{level: terminalLevel}, // True
	)
	return m
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the number of live nodes (including terminals).
func (m *Manager) Size() int { return len(m.nodes) }

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// mk returns the canonical node (level, lo, hi), applying the reduction
// rule lo == hi.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := node{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[key]; ok {
		return r
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, key)
	m.unique[key] = r
	return r
}

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range", i))
	}
	return m.mk(int32(i), False, True)
}

// Ite computes if-then-else(f, g, h), the universal BDD operator.
func (m *Manager) Ite(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := [3]Ref{f, g, h}
	if r, ok := m.iteMemo[key]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo := m.Ite(f0, g0, h0)
	hi := m.Ite(f1, g1, h1)
	r := m.mk(top, lo, hi)
	m.iteMemo[key] = r
	return r
}

func (m *Manager) cofactors(r Ref, level int32) (lo, hi Ref) {
	n := m.nodes[r]
	if n.level != level {
		return r, r
	}
	return n.lo, n.hi
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.Ite(f, False, True) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.Ite(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.Ite(f, True, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.Ite(f, m.Not(g), g) }

// Maj returns the three-input majority.
func (m *Manager) Maj(f, g, h Ref) Ref {
	return m.Or(m.And(f, g), m.Or(m.And(f, h), m.And(g, h)))
}

// Eval evaluates f under the given assignment (bit i = variable i).
func (m *Manager) Eval(f Ref, assignment uint) bool {
	for f != True && f != False {
		n := m.nodes[f]
		if assignment>>uint(n.level)&1 == 1 {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// CountModels returns the number of satisfying assignments of f over all
// NumVars variables, as a float64 (exact below 2^53). The computation
// works on satisfying *fractions*, which makes it independent of skipped
// levels in the reduced diagram.
func (m *Manager) CountModels(f Ref) float64 {
	memo := map[Ref]float64{}
	var frac func(r Ref) float64
	frac = func(r Ref) float64 {
		switch r {
		case False:
			return 0
		case True:
			return 1
		}
		if v, ok := memo[r]; ok {
			return v
		}
		n := m.nodes[r]
		v := (frac(n.lo) + frac(n.hi)) / 2
		memo[r] = v
		return v
	}
	return frac(f) * math.Exp2(float64(m.numVars))
}

// FromAIG symbolically evaluates an AIG, returning one BDD per output.
// The AIG must have at most NumVars inputs.
func (m *Manager) FromAIG(a *aig.AIG) []Ref {
	if a.NumPIs() > m.numVars {
		panic("bdd: AIG has more inputs than manager variables")
	}
	refs := make([]Ref, a.NumNodes())
	refs[0] = False
	for i := 0; i < a.NumPIs(); i++ {
		refs[i+1] = m.Var(i)
	}
	edge := func(l aig.Lit) Ref {
		r := refs[l.Node()]
		if l.Compl() {
			return m.Not(r)
		}
		return r
	}
	for n := a.NumPIs() + 1; n < a.NumNodes(); n++ {
		f0, f1 := a.Fanins(n)
		refs[n] = m.And(edge(f0), edge(f1))
	}
	outs := make([]Ref, a.NumPOs())
	for i, po := range a.POs() {
		outs[i] = edge(po)
	}
	return outs
}

// FromNetlist symbolically evaluates the active part of an RQFP netlist.
func (m *Manager) FromNetlist(n *rqfp.Netlist) []Ref {
	if n.NumPI > m.numVars {
		panic("bdd: netlist has more inputs than manager variables")
	}
	active := n.ActiveGates()
	port := make([]Ref, n.NumPorts())
	port[rqfp.ConstPort] = True
	for i := 0; i < n.NumPI; i++ {
		port[n.PIPort(i)] = m.Var(i)
	}
	for g := range n.Gates {
		if !active[g] {
			continue
		}
		gate := &n.Gates[g]
		for mj := 0; mj < 3; mj++ {
			var in [3]Ref
			for j := 0; j < 3; j++ {
				r := port[gate.In[j]]
				if gate.Cfg.Inv(mj, j) {
					r = m.Not(r)
				}
				in[j] = r
			}
			port[n.Port(g, mj)] = m.Maj(in[0], in[1], in[2])
		}
	}
	outs := make([]Ref, len(n.POs))
	for i, po := range n.POs {
		outs[i] = port[po]
	}
	return outs
}

// EquivalentAIGNetlist decides equivalence of a specification AIG and an
// RQFP netlist by canonical BDD comparison: equal functions hash-cons to
// the same node.
func EquivalentAIGNetlist(a *aig.AIG, n *rqfp.Netlist) bool {
	if a.NumPIs() != n.NumPI || a.NumPOs() != len(n.POs) {
		return false
	}
	m := New(a.NumPIs())
	oa := m.FromAIG(a)
	on := m.FromNetlist(n)
	for i := range oa {
		if oa[i] != on[i] {
			return false
		}
	}
	return true
}
