// Package mig implements a Majority-Inverter Graph: a logic network whose
// only gate is the three-input majority with optional edge complementation.
// MIGs are the natural intermediate representation for AQFP/RQFP synthesis
// because an RQFP logic gate is three configurable majorities; this package
// plays the role of mockturtle's "aqfp_resynthesis" in the RCGP flow
// (AIG→MIG conversion, majority-axiom simplification, depth-oriented
// associativity rewriting).
package mig

import (
	"fmt"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bits"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// Lit is an edge: 2*node + complement; node 0 is constant false.
type Lit uint32

// Constants.
const (
	Const0 Lit = 0
	Const1 Lit = 1
)

// MkLit builds an edge.
func MkLit(node int, compl bool) Lit {
	l := Lit(node * 2)
	if compl {
		l++
	}
	return l
}

// Node returns the node index of the edge.
func (l Lit) Node() int { return int(l) >> 1 }

// Compl reports whether the edge is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

// Not complements the edge.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the edge when c holds.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

func (l Lit) String() string {
	if l == Const0 {
		return "0"
	}
	if l == Const1 {
		return "1"
	}
	if l.Compl() {
		return fmt.Sprintf("!m%d", l.Node())
	}
	return fmt.Sprintf("m%d", l.Node())
}

// MIG is a majority-inverter graph with dense topological node indexing:
// node 0 = constant, 1..NumPIs = inputs, then MAJ nodes.
type MIG struct {
	nPI    int
	fanins [][3]Lit
	pos    []Lit
	strash map[[3]Lit]int

	InputNames  []string
	OutputNames []string
}

// New returns an empty MIG with n primary inputs.
func New(n int) *MIG {
	m := &MIG{nPI: n, strash: make(map[[3]Lit]int)}
	m.fanins = make([][3]Lit, n+1)
	return m
}

// NumPIs returns the primary input count.
func (m *MIG) NumPIs() int { return m.nPI }

// NumNodes returns the total node count including constant and PIs.
func (m *MIG) NumNodes() int { return len(m.fanins) }

// NumMajs returns the number of majority nodes.
func (m *MIG) NumMajs() int { return len(m.fanins) - m.nPI - 1 }

// PI returns the edge for input i.
func (m *MIG) PI(i int) Lit {
	if i < 0 || i >= m.nPI {
		panic(fmt.Sprintf("mig: PI index %d out of range", i))
	}
	return MkLit(i+1, false)
}

// IsMaj reports whether node is a majority gate.
func (m *MIG) IsMaj(node int) bool { return node > m.nPI }

// Fanins returns the three fanin edges of a MAJ node.
func (m *MIG) Fanins(node int) [3]Lit { return m.fanins[node] }

// POs returns the output edges (not a copy).
func (m *MIG) POs() []Lit { return m.pos }

// AddPO appends a primary output.
func (m *MIG) AddPO(l Lit) { m.pos = append(m.pos, l) }

// Maj returns an edge computing MAJ(a,b,c), applying the majority axioms
// M(x,x,y)=x and M(x,x̄,y)=y, canonical fanin ordering, complement
// canonicalization (at most one complemented fanin survives where the
// self-duality M(x̄,ȳ,z̄)=M̄(x,y,z) permits), and structural hashing.
func (m *MIG) Maj(a, b, c Lit) Lit {
	// Majority simplification.
	if a == b || a == c {
		return a
	}
	if b == c {
		return b
	}
	if a == b.Not() {
		return c
	}
	if a == c.Not() {
		return b
	}
	if b == c.Not() {
		return a
	}
	// Complement canonicalization via self-duality.
	compl := false
	n := 0
	for _, l := range []Lit{a, b, c} {
		if l.Compl() {
			n++
		}
	}
	if n >= 2 {
		a, b, c = a.Not(), b.Not(), c.Not()
		compl = true
	}
	// Canonical order.
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	key := [3]Lit{a, b, c}
	if node, ok := m.strash[key]; ok {
		return MkLit(node, compl)
	}
	node := len(m.fanins)
	m.fanins = append(m.fanins, key)
	m.strash[key] = node
	return MkLit(node, compl)
}

// And returns a AND b as MAJ(0,a,b).
func (m *MIG) And(a, b Lit) Lit { return m.Maj(Const0, a, b) }

// Or returns a OR b as MAJ(1,a,b).
func (m *MIG) Or(a, b Lit) Lit { return m.Maj(Const1, a, b) }

// Xor returns a XOR b (two majority levels).
func (m *MIG) Xor(a, b Lit) Lit {
	return m.Or(m.And(a, b.Not()), m.And(a.Not(), b))
}

// FromAIG converts an and-inverter graph into a MIG, mapping every AND to
// MAJ(0,·,·).
func FromAIG(a *aig.AIG) *MIG {
	m := New(a.NumPIs())
	m.InputNames = a.InputNames
	m.OutputNames = a.OutputNames
	mapped := make([]Lit, a.NumNodes())
	mapped[0] = Const0
	for i := 1; i <= a.NumPIs(); i++ {
		mapped[i] = MkLit(i, false)
	}
	edge := func(l aig.Lit) Lit { return mapped[l.Node()].NotIf(l.Compl()) }
	for n := a.NumPIs() + 1; n < a.NumNodes(); n++ {
		f0, f1 := a.Fanins(n)
		mapped[n] = m.And(edge(f0), edge(f1))
	}
	for _, po := range a.POs() {
		m.AddPO(edge(po))
	}
	return m
}

// ToAIG lowers the MIG back to an AIG (each majority becomes the standard
// three-AND realization, shared through strash).
func (m *MIG) ToAIG() *aig.AIG {
	a := aig.New(m.nPI)
	a.InputNames = m.InputNames
	a.OutputNames = m.OutputNames
	mapped := make([]aig.Lit, m.NumNodes())
	mapped[0] = aig.Const0
	for i := 1; i <= m.nPI; i++ {
		mapped[i] = aig.MkLit(i, false)
	}
	edge := func(l Lit) aig.Lit { return mapped[l.Node()].NotIf(l.Compl()) }
	for n := m.nPI + 1; n < m.NumNodes(); n++ {
		f := m.fanins[n]
		mapped[n] = a.Maj(edge(f[0]), edge(f[1]), edge(f[2]))
	}
	for _, po := range m.pos {
		a.AddPO(edge(po))
	}
	return a
}

// Cleanup returns a copy containing only nodes reachable from the outputs.
func (m *MIG) Cleanup() *MIG {
	b := New(m.nPI)
	b.InputNames = m.InputNames
	b.OutputNames = m.OutputNames
	mapped := make([]Lit, m.NumNodes())
	unset := Lit(^uint32(0))
	for i := range mapped {
		mapped[i] = unset
	}
	mapped[0] = Const0
	for i := 1; i <= m.nPI; i++ {
		mapped[i] = MkLit(i, false)
	}
	var walk func(n int) Lit
	walk = func(n int) Lit {
		if mapped[n] != unset {
			return mapped[n]
		}
		f := m.fanins[n]
		a := walk(f[0].Node()).NotIf(f[0].Compl())
		bb := walk(f[1].Node()).NotIf(f[1].Compl())
		c := walk(f[2].Node()).NotIf(f[2].Compl())
		mapped[n] = b.Maj(a, bb, c)
		return mapped[n]
	}
	for _, po := range m.pos {
		b.AddPO(walk(po.Node()).NotIf(po.Compl()))
	}
	return b
}

// Simulate evaluates the MIG on per-PI stimulus vectors.
func (m *MIG) Simulate(inputs []bits.Vec) []bits.Vec {
	if len(inputs) != m.nPI {
		panic("mig: wrong number of input vectors")
	}
	words := 1
	if m.nPI > 0 {
		words = len(inputs[0])
	}
	node := make([]bits.Vec, m.NumNodes())
	node[0] = bits.NewWords(words)
	for i := 0; i < m.nPI; i++ {
		node[i+1] = inputs[i]
	}
	tmp := [3]bits.Vec{bits.NewWords(words), bits.NewWords(words), bits.NewWords(words)}
	for n := m.nPI + 1; n < m.NumNodes(); n++ {
		var v [3]bits.Vec
		for j, f := range m.fanins[n] {
			v[j] = node[f.Node()]
			if f.Compl() {
				tmp[j].Not(v[j])
				v[j] = tmp[j]
			}
		}
		out := bits.NewWords(words)
		out.Maj(v[0], v[1], v[2])
		node[n] = out
	}
	outs := make([]bits.Vec, len(m.pos))
	for i, po := range m.pos {
		v := bits.NewWords(words)
		if po.Compl() {
			v.Not(node[po.Node()])
		} else {
			copy(v, node[po.Node()])
		}
		outs[i] = v
	}
	return outs
}

// TruthTables collapses every output over all PIs (≤ tt.MaxVars inputs).
func (m *MIG) TruthTables() []tt.TT {
	ins := bits.ExhaustiveInputs(m.nPI)
	outs := m.Simulate(ins)
	res := make([]tt.TT, len(outs))
	n := 1 << uint(m.nPI)
	for i, o := range outs {
		o.MaskTail(n)
		res[i] = tt.TT{N: m.nPI, Bits: o}
	}
	return res
}

// Levels returns the logic level of every node (PIs at 0).
func (m *MIG) Levels() []int {
	lv := make([]int, m.NumNodes())
	for n := m.nPI + 1; n < m.NumNodes(); n++ {
		mx := 0
		for _, f := range m.fanins[n] {
			if l := lv[f.Node()]; l > mx {
				mx = l
			}
		}
		lv[n] = mx + 1
	}
	return lv
}

// Depth returns the maximum output level.
func (m *MIG) Depth() int {
	lv := m.Levels()
	d := 0
	for _, po := range m.pos {
		if l := lv[po.Node()]; l > d {
			d = l
		}
	}
	return d
}
