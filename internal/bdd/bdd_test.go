package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/tt"
)

func TestTerminalRules(t *testing.T) {
	m := New(3)
	x := m.Var(0)
	if m.And(x, False) != False || m.And(False, x) != False {
		t.Fatal("AND false")
	}
	if m.And(x, True) != x {
		t.Fatal("AND true")
	}
	if m.Or(x, True) != True {
		t.Fatal("OR true")
	}
	if m.Or(x, False) != x {
		t.Fatal("OR false")
	}
	if m.Not(m.Not(x)) != x {
		t.Fatal("double negation not canonical")
	}
	if m.Xor(x, x) != False || m.Xor(x, m.Not(x)) != True {
		t.Fatal("XOR rules")
	}
}

func TestCanonicity(t *testing.T) {
	// Same function, different construction orders → same node.
	m := New(4)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f1 := m.And(a, m.And(b, c))
	f2 := m.And(m.And(c, a), b)
	if f1 != f2 {
		t.Fatal("AND tree not canonical")
	}
	g1 := m.Or(m.And(a, b), m.And(m.Not(a), c))
	g2 := m.Ite(a, b, c)
	if g1 != g2 {
		t.Fatal("mux not canonical")
	}
}

func TestEvalAgainstTruthTable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(5)
		f := tt.New(n)
		f.Bits.Randomize(r)
		f.Bits.MaskTail(f.Size())
		a := aig.FromTruthTables([]tt.TT{f})
		m := New(n)
		ref := m.FromAIG(a)[0]
		for s := uint(0); s < 1<<uint(n); s++ {
			if m.Eval(ref, s) != f.Get(s) {
				t.Fatalf("trial %d: eval mismatch at %d", trial, s)
			}
		}
	}
}

func TestCountModels(t *testing.T) {
	m := New(4)
	if got := m.CountModels(True); got != 16 {
		t.Fatalf("count(true) = %v", got)
	}
	if got := m.CountModels(False); got != 0 {
		t.Fatalf("count(false) = %v", got)
	}
	if got := m.CountModels(m.Var(2)); got != 8 {
		t.Fatalf("count(x2) = %v", got)
	}
	and := m.And(m.Var(0), m.Var(3))
	if got := m.CountModels(and); got != 4 {
		t.Fatalf("count(x0&x3) = %v", got)
	}
	maj := m.Maj(m.Var(0), m.Var(1), m.Var(2))
	if got := m.CountModels(maj); got != 8 { // 4 of 8 patterns × 2 for x3
		t.Fatalf("count(maj) = %v", got)
	}
}

func TestCountModelsQuick(t *testing.T) {
	f := func(word uint64) bool {
		table := tt.TT{N: 6, Bits: []uint64{word}}
		a := aig.FromTruthTables([]tt.TT{table})
		m := New(6)
		ref := m.FromAIG(a)[0]
		return int(m.CountModels(ref)) == table.CountOnes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomAIG(nPI, nAnds, nPOs int, r *rand.Rand) *aig.AIG {
	a := aig.New(nPI)
	edges := []aig.Lit{aig.Const0}
	for i := 0; i < nPI; i++ {
		edges = append(edges, a.PI(i))
	}
	for i := 0; i < nAnds; i++ {
		x := edges[r.Intn(len(edges))].NotIf(r.Intn(2) == 1)
		y := edges[r.Intn(len(edges))].NotIf(r.Intn(2) == 1)
		edges = append(edges, a.And(x, y))
	}
	for i := 0; i < nPOs; i++ {
		a.AddPO(edges[r.Intn(len(edges))].NotIf(r.Intn(2) == 1))
	}
	return a
}

func TestEquivalentAIGNetlist(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		a := randomAIG(4+r.Intn(3), 15+r.Intn(20), 2+r.Intn(3), r)
		n, err := rqfp.FromMIG(mig.FromAIG(a))
		if err != nil {
			t.Fatal(err)
		}
		if !EquivalentAIGNetlist(a, n) {
			t.Fatalf("trial %d: correct conversion reported inequivalent", trial)
		}
		// Mutate a config bit on an active gate; most flips change some
		// output — BDD comparison must agree with truth tables either way.
		bad := n.Clone()
		active := bad.ActiveGates()
		for g := range bad.Gates {
			if active[g] {
				bad.Gates[g].Cfg = bad.Gates[g].Cfg.FlipBit(r.Intn(9))
				break
			}
		}
		gotEq := EquivalentAIGNetlist(a, bad)
		ta, tb := a.TruthTables(), bad.TruthTables()
		wantEq := true
		for i := range ta {
			if !ta[i].Equal(tb[i]) {
				wantEq = false
				break
			}
		}
		if gotEq != wantEq {
			t.Fatalf("trial %d: BDD verdict %v, truth tables say %v", trial, gotEq, wantEq)
		}
	}
}

func TestEquivalentShapeMismatch(t *testing.T) {
	a := aig.New(2)
	a.AddPO(a.PI(0))
	n := rqfp.NewNetlist(3)
	n.POs = []rqfp.Signal{1}
	if EquivalentAIGNetlist(a, n) {
		t.Fatal("shape mismatch reported equivalent")
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).Var(5)
}

func BenchmarkFromAIG12Vars(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomAIG(12, 300, 6, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New(12)
		m.FromAIG(a)
	}
}

// TestXorExhaustive5 and TestMajExhaustive5 pin the derived operators
// against exhaustive enumeration of all 2^5 assignments over nested
// operand structures, not just single variables.
func TestXorExhaustive5(t *testing.T) {
	m := New(5)
	v := make([]Ref, 5)
	val := make([]func(uint) bool, 5)
	for i := range v {
		v[i] = m.Var(i)
		i := i
		val[i] = func(x uint) bool { return x>>uint(i)&1 == 1 }
	}
	cases := []struct {
		f    Ref
		want func(uint) bool
	}{
		{m.Xor(v[0], v[1]), func(x uint) bool { return val[0](x) != val[1](x) }},
		{m.Xor(m.Xor(v[0], v[1]), m.Xor(v[2], m.Xor(v[3], v[4]))),
			func(x uint) bool { return (val[0](x) != val[1](x)) != (val[2](x) != (val[3](x) != val[4](x))) }},
		{m.Xor(m.And(v[0], v[1]), m.Or(v[2], m.Not(v[3]))),
			func(x uint) bool { return (val[0](x) && val[1](x)) != (val[2](x) || !val[3](x)) }},
		{m.Xor(v[4], v[4]), func(uint) bool { return false }},
	}
	for ci, c := range cases {
		for x := uint(0); x < 32; x++ {
			if got := m.Eval(c.f, x); got != c.want(x) {
				t.Fatalf("xor case %d wrong at %05b: got %v want %v", ci, x, got, c.want(x))
			}
		}
	}
}

func TestMajExhaustive5(t *testing.T) {
	m := New(5)
	v := make([]Ref, 5)
	val := make([]func(uint) bool, 5)
	for i := range v {
		v[i] = m.Var(i)
		i := i
		val[i] = func(x uint) bool { return x>>uint(i)&1 == 1 }
	}
	maj := func(a, b, c bool) bool { return (a && b) || (a && c) || (b && c) }
	cases := []struct {
		f    Ref
		want func(uint) bool
	}{
		{m.Maj(v[0], v[1], v[2]), func(x uint) bool { return maj(val[0](x), val[1](x), val[2](x)) }},
		{m.Maj(v[2], v[3], v[4]), func(x uint) bool { return maj(val[2](x), val[3](x), val[4](x)) }},
		// Nested majority-of-majorities — the RQFP gate composition shape.
		{m.Maj(m.Maj(v[0], v[1], v[2]), v[3], m.Not(v[4])),
			func(x uint) bool { return maj(maj(val[0](x), val[1](x), val[2](x)), val[3](x), !val[4](x)) }},
		// Degenerate operands: constants reduce MAJ to AND/OR.
		{m.Maj(v[0], v[1], False), func(x uint) bool { return val[0](x) && val[1](x) }},
		{m.Maj(v[0], v[1], True), func(x uint) bool { return val[0](x) || val[1](x) }},
	}
	for ci, c := range cases {
		for x := uint(0); x < 32; x++ {
			if got := m.Eval(c.f, x); got != c.want(x) {
				t.Fatalf("maj case %d wrong at %05b: got %v want %v", ci, x, got, c.want(x))
			}
		}
	}
}
