// Package aig implements an And-Inverter Graph: the workhorse intermediate
// representation of classical logic synthesis. It provides structural
// hashing, constant propagation, dead-node cleanup, bit-parallel
// simulation, truth-table collapse, depth balancing, ISOP-based
// refactoring, cut-based rewriting and SAT sweeping — together playing the
// role of ABC's "resyn2" in the RCGP flow.
package aig

import (
	"fmt"
	"sort"
)

// Lit is an edge: 2*node + complement. Node 0 is the constant-false node,
// so Const0 = Lit(0) and Const1 = Lit(1).
type Lit uint32

// Constants.
const (
	Const0 Lit = 0
	Const1 Lit = 1
)

// MkLit builds an edge to the given node with optional complementation.
func MkLit(node int, compl bool) Lit {
	l := Lit(node * 2)
	if compl {
		l++
	}
	return l
}

// Node returns the node the edge points to.
func (l Lit) Node() int { return int(l) >> 1 }

// Compl reports whether the edge is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

// Not returns the complemented edge.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the edge when c is true.
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
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// AIG is an and-inverter graph. Nodes are indexed densely: node 0 is the
// constant, nodes 1..NumPIs are primary inputs, and higher nodes are
// two-input ANDs created in topological order.
type AIG struct {
	nPI    int
	fanin0 []Lit // indexed by node; PIs and the constant carry zero fanins
	fanin1 []Lit
	pos    []Lit
	strash map[uint64]int

	// Optional port names, used by the parsers/writers; may be nil.
	InputNames  []string
	OutputNames []string
}

// New returns an empty AIG with n primary inputs.
func New(n int) *AIG {
	a := &AIG{
		nPI:    n,
		fanin0: make([]Lit, n+1),
		fanin1: make([]Lit, n+1),
		strash: make(map[uint64]int),
	}
	return a
}

// NumPIs returns the number of primary inputs.
func (a *AIG) NumPIs() int { return a.nPI }

// NumPOs returns the number of primary outputs.
func (a *AIG) NumPOs() int { return len(a.pos) }

// NumNodes returns the total node count including constant and PIs.
func (a *AIG) NumNodes() int { return len(a.fanin0) }

// NumAnds returns the number of AND nodes.
func (a *AIG) NumAnds() int { return len(a.fanin0) - a.nPI - 1 }

// PI returns the edge for primary input i (0-based).
func (a *AIG) PI(i int) Lit {
	if i < 0 || i >= a.nPI {
		panic(fmt.Sprintf("aig: PI index %d out of range", i))
	}
	return MkLit(i+1, false)
}

// IsPI reports whether the node is a primary input.
func (a *AIG) IsPI(node int) bool { return node >= 1 && node <= a.nPI }

// IsAnd reports whether the node is an AND gate.
func (a *AIG) IsAnd(node int) bool { return node > a.nPI }

// Fanins returns the two fanin edges of an AND node.
func (a *AIG) Fanins(node int) (Lit, Lit) { return a.fanin0[node], a.fanin1[node] }

// PO returns output edge i.
func (a *AIG) PO(i int) Lit { return a.pos[i] }

// POs returns the output edge slice (not a copy).
func (a *AIG) POs() []Lit { return a.pos }

// AddPO appends a primary output driven by the given edge.
func (a *AIG) AddPO(l Lit) { a.pos = append(a.pos, l) }

// And returns an edge computing x AND y, reusing structure when possible.
func (a *AIG) And(x, y Lit) Lit {
	// Trivial cases.
	switch {
	case x == Const0 || y == Const0:
		return Const0
	case x == Const1:
		return y
	case y == Const1:
		return x
	case x == y:
		return x
	case x == y.Not():
		return Const0
	}
	if x > y {
		x, y = y, x
	}
	key := uint64(x)<<32 | uint64(y)
	if n, ok := a.strash[key]; ok {
		return MkLit(n, false)
	}
	n := len(a.fanin0)
	a.fanin0 = append(a.fanin0, x)
	a.fanin1 = append(a.fanin1, y)
	a.strash[key] = n
	return MkLit(n, false)
}

// Or returns x OR y.
func (a *AIG) Or(x, y Lit) Lit { return a.And(x.Not(), y.Not()).Not() }

// Xor returns x XOR y (two-level AND realization).
func (a *AIG) Xor(x, y Lit) Lit {
	return a.Or(a.And(x, y.Not()), a.And(x.Not(), y))
}

// Mux returns s ? x : y.
func (a *AIG) Mux(s, x, y Lit) Lit {
	return a.Or(a.And(s, x), a.And(s.Not(), y))
}

// Maj returns the three-input majority of x, y, z.
func (a *AIG) Maj(x, y, z Lit) Lit {
	return a.Or(a.Or(a.And(x, y), a.And(x, z)), a.And(y, z))
}

// AndN returns the conjunction of all edges, balanced by construction.
func (a *AIG) AndN(ls []Lit) Lit {
	switch len(ls) {
	case 0:
		return Const1
	case 1:
		return ls[0]
	}
	mid := len(ls) / 2
	return a.And(a.AndN(ls[:mid]), a.AndN(ls[mid:]))
}

// OrN returns the disjunction of all edges, balanced by construction.
func (a *AIG) OrN(ls []Lit) Lit {
	switch len(ls) {
	case 0:
		return Const0
	case 1:
		return ls[0]
	}
	mid := len(ls) / 2
	return a.Or(a.OrN(ls[:mid]), a.OrN(ls[mid:]))
}

// Levels returns, for each node, its logic depth (PIs and constant at 0).
func (a *AIG) Levels() []int {
	lv := make([]int, a.NumNodes())
	for n := a.nPI + 1; n < a.NumNodes(); n++ {
		l0 := lv[a.fanin0[n].Node()]
		l1 := lv[a.fanin1[n].Node()]
		if l0 < l1 {
			l0 = l1
		}
		lv[n] = l0 + 1
	}
	return lv
}

// Depth returns the maximum logic depth over the outputs.
func (a *AIG) Depth() int {
	lv := a.Levels()
	d := 0
	for _, po := range a.pos {
		if l := lv[po.Node()]; l > d {
			d = l
		}
	}
	return d
}

// FanoutCounts returns the number of fanout references per node (including
// PO references).
func (a *AIG) FanoutCounts() []int {
	fc := make([]int, a.NumNodes())
	for n := a.nPI + 1; n < a.NumNodes(); n++ {
		fc[a.fanin0[n].Node()]++
		fc[a.fanin1[n].Node()]++
	}
	for _, po := range a.pos {
		fc[po.Node()]++
	}
	return fc
}

// Cleanup returns a structurally-hashed copy of a containing only nodes
// reachable from the outputs; the PO order and PI identities are preserved.
func (a *AIG) Cleanup() *AIG {
	b := New(a.nPI)
	b.InputNames = a.InputNames
	b.OutputNames = a.OutputNames
	m := make([]Lit, a.NumNodes())
	for i := range m {
		m[i] = Lit(^uint32(0)) // unmapped sentinel
	}
	m[0] = Const0
	for i := 1; i <= a.nPI; i++ {
		m[i] = MkLit(i, false)
	}
	var mapNode func(n int) Lit
	mapNode = func(n int) Lit {
		if m[n] != Lit(^uint32(0)) {
			return m[n]
		}
		f0 := mapNode(a.fanin0[n].Node()).NotIf(a.fanin0[n].Compl())
		f1 := mapNode(a.fanin1[n].Node()).NotIf(a.fanin1[n].Compl())
		m[n] = b.And(f0, f1)
		return m[n]
	}
	for _, po := range a.pos {
		l := mapNode(po.Node()).NotIf(po.Compl())
		b.AddPO(l)
	}
	return b
}

// Clone returns a deep copy.
func (a *AIG) Clone() *AIG {
	b := New(a.nPI)
	b.fanin0 = append(b.fanin0[:0], a.fanin0...)
	b.fanin1 = append(b.fanin1[:0], a.fanin1...)
	b.pos = append([]Lit(nil), a.pos...)
	b.strash = make(map[uint64]int, len(a.strash))
	for k, v := range a.strash {
		b.strash[k] = v
	}
	b.InputNames = append([]string(nil), a.InputNames...)
	b.OutputNames = append([]string(nil), a.OutputNames...)
	return b
}

// SupportOf returns the sorted PI indices in the transitive fanin of edge l.
func (a *AIG) SupportOf(l Lit) []int {
	seen := make(map[int]bool)
	var pis []int
	var walk func(n int)
	walk = func(n int) {
		if seen[n] || n == 0 {
			return
		}
		seen[n] = true
		if a.IsPI(n) {
			pis = append(pis, n-1)
			return
		}
		walk(a.fanin0[n].Node())
		walk(a.fanin1[n].Node())
	}
	walk(l.Node())
	sort.Ints(pis)
	return pis
}
