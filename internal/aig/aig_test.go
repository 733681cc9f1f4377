package aig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/reversible-eda/rcgp/internal/bits"
	"github.com/reversible-eda/rcgp/internal/cnf"
	"github.com/reversible-eda/rcgp/internal/sat"
	"github.com/reversible-eda/rcgp/internal/tt"
)

func TestLitHelpers(t *testing.T) {
	l := MkLit(5, true)
	if l.Node() != 5 || !l.Compl() {
		t.Fatal("MkLit wrong")
	}
	if l.Not().Compl() {
		t.Fatal("Not wrong")
	}
	if l.NotIf(false) != l || l.NotIf(true) != l.Not() {
		t.Fatal("NotIf wrong")
	}
	if Const0.String() != "0" || Const1.String() != "1" {
		t.Fatal("const String wrong")
	}
}

func TestStrashTrivialRules(t *testing.T) {
	a := New(2)
	x, y := a.PI(0), a.PI(1)
	if a.And(x, Const0) != Const0 || a.And(Const0, y) != Const0 {
		t.Fatal("AND with 0")
	}
	if a.And(x, Const1) != x || a.And(Const1, y) != y {
		t.Fatal("AND with 1")
	}
	if a.And(x, x) != x {
		t.Fatal("AND idempotence")
	}
	if a.And(x, x.Not()) != Const0 {
		t.Fatal("AND contradiction")
	}
	n1 := a.And(x, y)
	n2 := a.And(y, x)
	if n1 != n2 {
		t.Fatal("strash failed to merge commuted AND")
	}
	if a.NumAnds() != 1 {
		t.Fatalf("NumAnds = %d, want 1", a.NumAnds())
	}
}

func TestDerivedGates(t *testing.T) {
	a := New(3)
	x, y, z := a.PI(0), a.PI(1), a.PI(2)
	a.AddPO(a.Or(x, y))
	a.AddPO(a.Xor(x, y))
	a.AddPO(a.Mux(z, x, y))
	a.AddPO(a.Maj(x, y, z))
	tts := a.TruthTables()
	want := []tt.TT{
		tt.FromFunc(3, func(s uint) bool { return s&1 == 1 || s>>1&1 == 1 }),
		tt.FromFunc(3, func(s uint) bool { return (s&1 == 1) != (s>>1&1 == 1) }),
		tt.FromFunc(3, func(s uint) bool {
			if s>>2&1 == 1 {
				return s&1 == 1
			}
			return s>>1&1 == 1
		}),
		tt.FromFunc(3, func(s uint) bool { return s&1+s>>1&1+s>>2&1 >= 2 }),
	}
	for i := range want {
		if !tts[i].Equal(want[i]) {
			t.Fatalf("output %d: got %s want %s", i, tts[i], want[i])
		}
	}
}

// randomAIG builds a random AIG for function-preservation tests.
func randomAIG(nPI, nAnds, nPOs int, r *rand.Rand) *AIG {
	a := New(nPI)
	edges := []Lit{Const0}
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

func equivalent(t *testing.T, a, b *AIG) bool {
	t.Helper()
	ta := a.TruthTables()
	tb := b.TruthTables()
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if !ta[i].Equal(tb[i]) {
			return false
		}
	}
	return true
}

func TestCleanupPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		a := randomAIG(5, 40, 4, r)
		c := a.Cleanup()
		if !equivalent(t, a, c) {
			t.Fatalf("trial %d: cleanup changed function", trial)
		}
		if c.NumAnds() > a.NumAnds() {
			t.Fatalf("trial %d: cleanup grew the graph", trial)
		}
	}
}

func TestBalancePreservesFunctionAndDepth(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 30; trial++ {
		a := randomAIG(6, 60, 5, r)
		b := a.Balance()
		if !equivalent(t, a, b) {
			t.Fatalf("trial %d: balance changed function", trial)
		}
		if b.Depth() > a.Cleanup().Depth() {
			t.Fatalf("trial %d: balance increased depth %d -> %d", trial, a.Cleanup().Depth(), b.Depth())
		}
	}
}

func TestBalanceLongChain(t *testing.T) {
	// AND chain of 16 inputs has depth 15; balanced form must reach ~4.
	a := New(16)
	acc := a.PI(0)
	for i := 1; i < 16; i++ {
		acc = a.And(acc, a.PI(i))
	}
	a.AddPO(acc)
	b := a.Balance()
	if d := b.Depth(); d != 4 {
		t.Fatalf("balanced 16-AND chain depth = %d, want 4", d)
	}
	// Equivalence spot check via random sim.
	if !RandomEquivalent(a, b, 8, rand.New(rand.NewSource(1))) {
		t.Fatal("balance changed function")
	}
}

func TestRewritePreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for trial := 0; trial < 30; trial++ {
		a := randomAIG(6, 50, 4, r)
		b := a.Rewrite()
		if !equivalent(t, a, b) {
			t.Fatalf("trial %d: rewrite changed function", trial)
		}
		if b.NumAnds() > a.Cleanup().NumAnds() {
			t.Fatalf("trial %d: rewrite grew cleaned graph %d -> %d",
				trial, a.Cleanup().NumAnds(), b.NumAnds())
		}
	}
}

// The cover memo is keyed by the cut function expanded to 4 inputs. For
// every 2-, 3- and 4-input function it must hold the cover an ISOP at the
// cut's own size picks: the ISOP of f or of ¬f, whichever has fewer
// literals (f on a tie), with the same cubes in the same order.
func TestCoverMemoMatchesISOPAtCutSize(t *testing.T) {
	covers := coverMemo{}
	for k := 2; k <= cutK; k++ {
		rows := 1 << k
		for fn := 1; fn < 1<<rows-1; fn++ { // constants need no cover
			f := tt.New(k)
			f.Bits[0] = uint64(fn)
			want, wantNeg := tt.ISOP(f), false
			if neg := tt.ISOP(f.Not()); neg.NumLits() < want.NumLits() {
				want, wantNeg = neg, true
			}
			var table uint16
			for row := 0; row < 16; row++ {
				table |= uint16(fn>>(row%rows)&1) << row
			}
			got := covers.get(table)
			if got.neg != wantNeg || got.n != len(want) {
				t.Fatalf("k=%d f=%#x: memo has %d cubes (neg %v), ISOP %d (neg %v)",
					k, fn, got.n, got.neg, len(want), wantNeg)
			}
			for i, c := range want {
				if got.cubes[i] != c {
					t.Fatalf("k=%d f=%#x: cube %d is %v, want %v", k, fn, i, got.cubes[i], c)
				}
			}
		}
	}
}

func TestSweepMergesDuplicates(t *testing.T) {
	a := New(2)
	x, y := a.PI(0), a.PI(1)
	// Build XOR twice with different structure.
	x1 := a.Or(a.And(x, y.Not()), a.And(x.Not(), y))
	x2 := a.And(a.Or(x, y), a.And(x, y).Not())
	a.AddPO(x1)
	a.AddPO(x2)
	s := a.Sweep()
	if !equivalent(t, a, s) {
		t.Fatal("sweep changed function")
	}
	if s.PO(0) != s.PO(1) {
		t.Fatalf("sweep failed to merge equivalent outputs: %v vs %v", s.PO(0), s.PO(1))
	}
}

func TestSweepPreservesFunctionRandom(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for trial := 0; trial < 30; trial++ {
		a := randomAIG(6, 60, 5, r)
		s := a.Sweep()
		if !equivalent(t, a, s) {
			t.Fatalf("trial %d: sweep changed function", trial)
		}
		if s.NumAnds() > a.Cleanup().NumAnds() {
			t.Fatalf("trial %d: sweep grew graph", trial)
		}
	}
}

func TestSweepSATPathOnWideCircuit(t *testing.T) {
	// 16 PIs forces the random-sim + SAT confirmation path.
	a := New(16)
	var xs []Lit
	for i := 0; i < 16; i++ {
		xs = append(xs, a.PI(i))
	}
	// Two structurally different computations of the same function.
	f1 := a.And(a.Or(xs[0], xs[1]), a.Or(xs[2], xs[3]))
	f2 := a.Or(a.And(a.Or(xs[0], xs[1]), xs[2]), a.And(a.Or(xs[1], xs[0]), xs[3]))
	a.AddPO(f1)
	a.AddPO(f2)
	s := a.Sweep()
	if s.PO(0) != s.PO(1) {
		t.Fatalf("SAT sweep failed to merge: %v vs %v", s.PO(0), s.PO(1))
	}
	if !RandomEquivalent(a, s, 16, rand.New(rand.NewSource(2))) {
		t.Fatal("SAT sweep changed function")
	}
}

func TestOptimizePreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	for _, effort := range []Effort{EffortFast, EffortStd, EffortHigh} {
		for trial := 0; trial < 10; trial++ {
			a := randomAIG(7, 80, 5, r)
			o := a.Optimize(effort)
			if !equivalent(t, a, o) {
				t.Fatalf("effort %d trial %d: optimize changed function", effort, trial)
			}
			if o.NumAnds() > a.Cleanup().NumAnds() {
				t.Fatalf("effort %d trial %d: optimize grew graph", effort, trial)
			}
		}
	}
}

func TestFromTruthTablesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(5)
		tables := make([]tt.TT, 1+r.Intn(4))
		for i := range tables {
			f := tt.New(n)
			f.Bits.Randomize(r)
			f.Bits.MaskTail(f.Size())
			tables[i] = f
		}
		a := FromTruthTables(tables)
		got := a.TruthTables()
		for i := range tables {
			if !got[i].Equal(tables[i]) {
				t.Fatalf("trial %d output %d: round trip mismatch", trial, i)
			}
		}
	}
}

func TestFromTruthTablesQuick(t *testing.T) {
	f := func(word uint64) bool {
		table := tt.TT{N: 6, Bits: bits.Vec{word}}
		a := FromTruthTables([]tt.TT{table})
		return a.TruthTables()[0].Equal(table)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSupportOf(t *testing.T) {
	a := New(5)
	f := a.And(a.PI(1), a.PI(3))
	sup := a.SupportOf(f)
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 3 {
		t.Fatalf("support = %v", sup)
	}
	if s := a.SupportOf(Const1); len(s) != 0 {
		t.Fatalf("const support = %v", s)
	}
}

func TestToCNFAgainstSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	for trial := 0; trial < 10; trial++ {
		a := randomAIG(5, 30, 3, r)
		tts := a.TruthTables()
		for m := uint(0); m < 32; m++ {
			b := cnf.NewBuilder()
			pis, pos := a.ToCNF(b)
			for i, p := range pis {
				if m>>uint(i)&1 == 1 {
					b.AddClause(p)
				} else {
					b.AddClause(p.Not())
				}
			}
			// Assert each output to its wrong value: must be UNSAT.
			for i, po := range pos {
				b2 := cnf.NewBuilder()
				pis2, pos2 := a.ToCNF(b2)
				for j, p := range pis2 {
					if m>>uint(j)&1 == 1 {
						b2.AddClause(p)
					} else {
						b2.AddClause(p.Not())
					}
				}
				want := tts[i].Get(m)
				if want {
					b2.AddClause(pos2[i].Not())
				} else {
					b2.AddClause(pos2[i])
				}
				st, err := b2.S.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if st != sat.Unsat {
					t.Fatalf("trial %d m=%d output %d: CNF disagrees with simulation", trial, m, i)
				}
				_ = po
			}
			_ = pos
		}
	}
}

func TestLevelsAndDepth(t *testing.T) {
	a := New(2)
	n1 := a.And(a.PI(0), a.PI(1))
	n2 := a.And(n1, a.PI(0).Not())
	a.AddPO(n2)
	lv := a.Levels()
	if lv[n1.Node()] != 1 || lv[n2.Node()] != 2 {
		t.Fatalf("levels wrong: %v", lv)
	}
	if a.Depth() != 2 {
		t.Fatalf("depth = %d", a.Depth())
	}
}

func TestFanoutCounts(t *testing.T) {
	a := New(2)
	n1 := a.And(a.PI(0), a.PI(1))
	n2 := a.And(n1, a.PI(0))
	a.AddPO(n1)
	a.AddPO(n2)
	fc := a.FanoutCounts()
	if fc[n1.Node()] != 2 {
		t.Fatalf("fanout of n1 = %d, want 2", fc[n1.Node()])
	}
	if fc[1] != 2 { // PI(0) feeds n1 and n2
		t.Fatalf("fanout of PI0 = %d, want 2", fc[1])
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2)
	a.AddPO(a.And(a.PI(0), a.PI(1)))
	c := a.Clone()
	c.AddPO(c.Or(c.PI(0), c.PI(1)))
	if a.NumPOs() != 1 || c.NumPOs() != 2 {
		t.Fatal("clone not independent")
	}
	if !equivalent(t, a, a.Clone()) {
		t.Fatal("clone changed function")
	}
}

func BenchmarkOptimizeRandom(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomAIG(8, 300, 8, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Optimize(EffortStd)
	}
}

func BenchmarkSimulate64Words(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomAIG(10, 500, 8, r)
	ins := bits.RandomInputs(10, 64, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Simulate(ins)
	}
}
