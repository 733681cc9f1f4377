package cec

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/cnf"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/sat"
)

// eagerMiter is the parent miter as one encoding sweep: every new majority
// node's clauses go into a fresh builder as the node is allocated, so
// every check writes the whole CNF. It is the reference that parentMiter's
// structural pass and deferred CNF must reproduce.
type eagerMiter struct {
	b                   *cnf.Builder
	parentLit, childLit []sat.Lit
	cone                []bool
	strash              map[[3]sat.Lit]sat.Lit
	parentOut, childOut []sat.Lit
}

// sweep encodes both sides and reports whether every PO literal pair
// matches.
func (m *eagerMiter) sweep(parent, child *rqfp.Netlist, parentActive, childActive []bool, dirtyGates []int32) bool {
	m.b = cnf.NewBuilder()
	ports, gates := child.NumPorts(), len(child.Gates)
	m.parentLit = make([]sat.Lit, ports)
	m.childLit = make([]sat.Lit, ports)
	m.cone = make([]bool, gates)
	m.strash = make(map[[3]sat.Lit]sat.Lit)
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
	m.parentOut, m.childOut = nil, nil
	for i, po := range child.POs {
		if p, c := m.parentLit[parent.POs[i]], m.childLit[po]; p != c {
			m.parentOut = append(m.parentOut, p)
			m.childOut = append(m.childOut, c)
		}
	}
	return len(m.parentOut) == 0
}

func (m *eagerMiter) encode(n *rqfp.Netlist, g int, gate *rqfp.Gate, lit []sat.Lit) {
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

func (m *eagerMiter) maj(x, y, z sat.Lit) sat.Lit {
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
	if o, ok := m.strash[[3]sat.Lit{x.Not(), y.Not(), z.Not()}]; ok {
		return o.Not()
	}
	o := m.b.Maj(x, y, z)
	m.strash[key] = o
	return o
}

// miter adds the output miter to the encoded sweep and returns its solver.
func (m *eagerMiter) miter() *sat.Solver {
	m.b.AddClause(m.b.MiterOutputs(m.parentOut, m.childOut))
	return m.b.S
}

// miterParent is a named parent of the differential tests.
type miterParent struct {
	name string
	n    *rqfp.Netlist
}

// miterParents returns proved parents for the differential tests, all
// wider than the exhaustive limit: the 16-input AND chain, a 9-bit
// ripple-carry adder (18 inputs) and a 10-bit comparator (20 inputs),
// the last two converted from their AIGs like the flow's initial netlists.
func miterParents() []miterParent {
	_, chain := andChain()
	add := aig.New(18)
	carry := aig.Const0
	for k := 0; k < 9; k++ {
		x, y := add.PI(k), add.PI(9+k)
		add.AddPO(add.Xor(add.Xor(x, y), carry))
		carry = add.Or(add.And(x, y), add.And(carry, add.Xor(x, y)))
	}
	add.AddPO(carry)
	cmp := aig.New(20)
	gt, eq := aig.Const0, aig.Const1
	for k := 0; k < 10; k++ {
		x, y := cmp.PI(k), cmp.PI(10+k)
		same := cmp.Xor(x, y).Not()
		gt = cmp.Or(cmp.And(x, y.Not()), cmp.And(same, gt))
		eq = cmp.And(same, eq)
	}
	cmp.AddPO(gt)
	cmp.AddPO(eq)
	convert := func(a *aig.AIG) *rqfp.Netlist {
		n, err := rqfp.FromMIG(mig.FromAIG(a))
		if err != nil {
			panic(err)
		}
		return n
	}
	return []miterParent{{"andChain", chain}, {"adder9", convert(add)}, {"comparator10", convert(cmp)}}
}

// mutateForMiter returns an offspring of parent with genes random gene
// changes and the gates they touched: config bit flips, input rewires to
// any earlier port, splitter-port swaps (an input or a PO moved to another
// port of the gate it reads), swaps of two inputs of a gate, and PO moves.
func mutateForMiter(r *rand.Rand, parent *rqfp.Netlist, genes int) (*rqfp.Netlist, []int32) {
	child := parent.Clone()
	var dirty []int32
	otherPort := func(s rqfp.Signal) rqfp.Signal {
		owner, maj, ok := child.PortOwner(s)
		if !ok {
			return s
		}
		return child.Port(owner, (maj+1+r.Intn(2))%3)
	}
	for i := 0; i < genes; i++ {
		g := r.Intn(len(child.Gates))
		gate := &child.Gates[g]
		switch r.Intn(5) {
		case 0:
			gate.Cfg = gate.Cfg.FlipBit(r.Intn(9))
		case 1:
			gate.In[r.Intn(3)] = rqfp.Signal(r.Intn(int(child.GateBase(g))))
		case 2:
			j := r.Intn(3)
			gate.In[j] = otherPort(gate.In[j])
		case 3:
			j, k := r.Intn(3), r.Intn(3)
			gate.In[j], gate.In[k] = gate.In[k], gate.In[j]
		case 4:
			po := r.Intn(len(child.POs))
			if r.Intn(2) == 0 {
				child.POs[po] = otherPort(child.POs[po])
			} else {
				child.POs[po] = rqfp.Signal(r.Intn(child.NumPorts()))
			}
			continue
		}
		dirty = append(dirty, int32(g))
	}
	return child, dirty
}

// diffParentMiter proves child against parent with the structural pass
// and with the eager sweep, and fails unless they agree: the same
// variables, the same verdict of the pass, and when an output pair
// differs, the same differing pairs, variable and clause counts, Solve
// status and solver counters. It returns Unknown when the pass proved
// child, otherwise the solver's status.
func diffParentMiter(t testing.TB, m *parentMiter, parent, child *rqfp.Netlist, dirty []int32) sat.Status {
	t.Helper()
	parentActive, childActive := parent.ActiveGates(), child.ActiveGates()
	var ref eagerMiter
	hashed := m.sweep(parent, child, parentActive, childActive, dirty)
	if want := ref.sweep(parent, child, parentActive, childActive, dirty); hashed != want {
		t.Fatalf("structural pass reports equal outputs %v, the eager sweep %v", hashed, want)
	}
	if m.vars != ref.b.S.NumVars() {
		t.Fatalf("structural pass numbered %d variables, the eager sweep allocated %d", m.vars, ref.b.S.NumVars())
	}
	if hashed {
		return sat.Unknown
	}
	if !slices.Equal(m.parentOut, ref.parentOut) || !slices.Equal(m.childOut, ref.childOut) {
		t.Fatalf("differing outputs %v/%v, the eager sweep %v/%v", m.parentOut, m.childOut, ref.parentOut, ref.childOut)
	}
	got, want := m.miter(), ref.miter()
	if got.NumVars() != want.NumVars() || got.NumClauses() != want.NumClauses() {
		t.Fatalf("CNF of %d variables and %d clauses, the eager sweep %d and %d",
			got.NumVars(), got.NumClauses(), want.NumVars(), want.NumClauses())
	}
	gotStatus, gotErr := got.Solve()
	wantStatus, wantErr := want.Solve()
	if gotStatus != wantStatus || gotErr != wantErr {
		t.Fatalf("Solve gave %v (%v), the eager sweep %v (%v)", gotStatus, gotErr, wantStatus, wantErr)
	}
	if got.Counters() != want.Counters() {
		t.Fatalf("solver counters %+v, the eager sweep %+v", got.Counters(), want.Counters())
	}
	return gotStatus
}

// TestParentMiterMatchesEagerSweep drives the structural pass and the
// eager sweep over seeded offspring of wide proved parents, with one to
// four mutated genes each. Every parent must produce both outcomes —
// outputs merged by the hash and outputs left to the solver — and some
// offspring must be proved by the solver.
func TestParentMiterMatchesEagerSweep(t *testing.T) {
	offspring := 600
	if testing.Short() {
		offspring = 150
	}
	unsat := 0
	for i, p := range miterParents() {
		t.Run(p.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(i)))
			var m parentMiter
			hashed := 0
			for k := 0; k < offspring; k++ {
				child, dirty := mutateForMiter(r, p.n, 1+r.Intn(4))
				switch diffParentMiter(t, &m, p.n, child, dirty) {
				case sat.Unknown:
					hashed++
				case sat.Unsat:
					unsat++
				}
			}
			if hashed < offspring/10 || hashed > offspring-offspring/10 {
				t.Fatalf("the hash settled %d of %d offspring: too few of one outcome to compare", hashed, offspring)
			}
		})
	}
	if unsat == 0 {
		t.Fatal("the solver proved no offspring")
	}
}

// FuzzParentMiter is TestParentMiterMatchesEagerSweep on fuzzed offspring.
func FuzzParentMiter(f *testing.F) {
	parents := miterParents()
	for i := range parents {
		f.Add(uint8(i), int64(i), uint8(i))
	}
	var m parentMiter
	f.Fuzz(func(t *testing.T, which uint8, seed int64, genes uint8) {
		parent := parents[int(which)%len(parents)].n
		r := rand.New(rand.NewSource(seed))
		child, dirty := mutateForMiter(r, parent, 1+int(genes)%4)
		diffParentMiter(t, &m, parent, child, dirty)
	})
}

// TestHashedProofAllocatesNothing checks that a survivor the structural
// hash settles costs no allocation once the checker's tables are warm, and
// no solver work: a splitter-port swap on the AND chain, whose gates give
// the same AND on all three ports.
func TestHashedProofAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	spec, parent := andChain()
	inc := NewIncremental(spec)
	inc.SetParent(parent, nil, true)
	child := parent.Clone()
	child.Gates[5].In[0] = child.Port(4, 1)
	dirty := []int32{5}
	proved := 0
	check := func() {
		if v, _, ok := inc.CheckDelta(ctx, child, dirty, nil, true); ok && v.Proved {
			proved++
		}
	}
	check()
	inc.Flush()
	before := spec.Stats()
	if allocs := testing.AllocsPerRun(100, check); allocs != 0 {
		t.Fatalf("a hashed proof made %v allocations", allocs)
	}
	inc.Flush()
	after := spec.Stats()
	if proved != 102 || after.SATProved-before.SATProved != 101 {
		t.Fatalf("%d of 102 checks proved, %d SAT proofs counted", proved, after.SATProved-before.SATProved)
	}
	if after.SAT != before.SAT {
		t.Fatalf("a hashed proof ran the solver: %+v → %+v", before.SAT, after.SAT)
	}
}
