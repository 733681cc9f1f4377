package tt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomTT(n int, r *rand.Rand) TT {
	t := New(n)
	t.Bits.Randomize(r)
	t.Bits.MaskTail(t.Size())
	return t
}

func TestVarAndConst(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for v := 0; v < n; v++ {
			x := Var(n, v)
			for s := uint(0); s < 1<<uint(n); s++ {
				if x.Get(s) != (s>>uint(v)&1 == 1) {
					t.Fatalf("Var(%d,%d) wrong at %d", n, v, s)
				}
			}
		}
		if !Const(n, true).IsConst1() || !Const(n, false).IsConst0() {
			t.Fatalf("const checks failed for n=%d", n)
		}
		if Const(n, true).IsConst0() || Const(n, false).IsConst1() {
			t.Fatalf("const cross-checks failed for n=%d", n)
		}
	}
}

func TestFromFunc(t *testing.T) {
	maj := FromFunc(3, func(s uint) bool {
		a, b, c := s&1, s>>1&1, s>>2&1
		return a+b+c >= 2
	})
	// MAJ3 truth table is 0xE8.
	if maj.Hex() != "e8" {
		t.Fatalf("maj hex = %s, want e8", maj.Hex())
	}
}

func TestHexRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 0; n <= 9; n++ {
		f := randomTT(n, r)
		g, err := FromHex(n, f.Hex())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !f.Equal(g) {
			t.Fatalf("n=%d: round trip mismatch %s vs %s", n, f.Hex(), g.Hex())
		}
	}
	if _, err := FromHex(3, "zz"); err == nil {
		t.Fatal("expected error for bad hex")
	}
	if _, err := FromHex(3, "e8e8"); err == nil {
		t.Fatal("expected error for wrong length")
	}
	// An out-of-range variable count is an error, not a panic in New.
	for _, n := range []int{-1, MaxVars + 1} {
		if _, err := FromHex(n, "8"); err == nil {
			t.Fatalf("FromHex(%d) accepted", n)
		}
	}
}

func TestCofactorsAgainstDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 1; n <= 8; n++ {
		f := randomTT(n, r)
		for v := 0; v < n; v++ {
			c0, c1 := f.Cofactor0(v), f.Cofactor1(v)
			for s := uint(0); s < 1<<uint(n); s++ {
				s0 := s &^ (1 << uint(v))
				s1 := s | 1<<uint(v)
				if c0.Get(s) != f.Get(s0) {
					t.Fatalf("n=%d v=%d s=%d: cofactor0 mismatch", n, v, s)
				}
				if c1.Get(s) != f.Get(s1) {
					t.Fatalf("n=%d v=%d s=%d: cofactor1 mismatch", n, v, s)
				}
			}
		}
	}
}

func TestShannonExpansionQuick(t *testing.T) {
	// f = ¬v·f0 + v·f1 for every variable (property-based over 6-var tables).
	f := func(word uint64, vRaw uint8) bool {
		n := 6
		v := int(vRaw) % n
		f := New(n)
		f.Bits[0] = word
		x := Var(n, v)
		recomposed := x.Not().And(f.Cofactor0(v)).Or(x.And(f.Cofactor1(v)))
		return recomposed.Equal(f)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSupport(t *testing.T) {
	f := FromFunc(5, func(s uint) bool {
		return (s&1 == 1) != (s>>3&1 == 1) // x0 XOR x3
	})
	sup := f.Support()
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 3 {
		t.Fatalf("support = %v, want [0 3]", sup)
	}
}

func TestBooleanOps(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f, g := randomTT(7, r), randomTT(7, r)
	and, or, xor, not := f.And(g), f.Or(g), f.Xor(g), f.Not()
	for s := uint(0); s < 128; s++ {
		a, b := f.Get(s), g.Get(s)
		if and.Get(s) != (a && b) || or.Get(s) != (a || b) || xor.Get(s) != (a != b) || not.Get(s) != !a {
			t.Fatalf("boolean op mismatch at %d", s)
		}
	}
	if !f.Not().Not().Equal(f) {
		t.Fatal("double negation changed table")
	}
}

func TestCubeBasics(t *testing.T) {
	c := Cube{}.Lit(0, true).Lit(2, false)
	if c.NumLits() != 2 {
		t.Fatalf("NumLits = %d", c.NumLits())
	}
	if !c.Contains(0b001) || c.Contains(0b101) || c.Contains(0b000) {
		t.Fatal("Contains wrong")
	}
	got := c.Eval(3)
	want := FromFunc(3, func(s uint) bool { return s&1 == 1 && s>>2&1 == 0 })
	if !got.Equal(want) {
		t.Fatalf("cube eval = %s, want %s", got, want)
	}
	if s := c.String(); s != "x0·!x2" {
		t.Fatalf("String = %q", s)
	}
	if s := (Cube{}).String(); s != "1" {
		t.Fatalf("empty cube String = %q", s)
	}
}

func TestISOPExactCover(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for n := 0; n <= 8; n++ {
		for trial := 0; trial < 20; trial++ {
			f := randomTT(n, r)
			cover := ISOP(f)
			if !cover.Eval(n).Equal(f) {
				t.Fatalf("n=%d: ISOP cover does not equal function", n)
			}
		}
	}
}

func TestISOPSpecialCases(t *testing.T) {
	if c := ISOP(Const(4, false)); len(c) != 0 {
		t.Fatalf("cover of const0 has %d cubes", len(c))
	}
	c := ISOP(Const(4, true))
	if len(c) != 1 || c[0].Mask != 0 {
		t.Fatalf("cover of const1 = %v", c)
	}
	x := Var(5, 3)
	c = ISOP(x)
	if len(c) != 1 || c[0].NumLits() != 1 {
		t.Fatalf("cover of single variable = %v", c)
	}
}

func TestISOPIntervalRespectsBounds(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 6
		on := randomTT(n, r)
		dc := randomTT(n, r)
		upper := on.Or(dc)
		cover := ISOPInterval(on, upper)
		got := cover.Eval(n)
		// on ⊆ got ⊆ upper
		if !on.And(got.Not()).IsConst0() {
			t.Fatal("cover misses onset minterms")
		}
		if !got.And(upper.Not()).IsConst0() {
			t.Fatal("cover exceeds upper bound")
		}
	}
}

func TestISOPIrredundantOnSmall(t *testing.T) {
	// Removing any cube from the cover must change the function.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n := 5
		f := randomTT(n, r)
		cover := ISOP(f)
		for i := range cover {
			reduced := make(Cover, 0, len(cover)-1)
			reduced = append(reduced, cover[:i]...)
			reduced = append(reduced, cover[i+1:]...)
			if reduced.Eval(n).Equal(f) {
				t.Fatalf("cube %d (%s) is redundant in cover of %s", i, cover[i], f)
			}
		}
	}
}

func TestDependsOn(t *testing.T) {
	f := Var(4, 1).And(Var(4, 2))
	if f.DependsOn(0) || !f.DependsOn(1) || !f.DependsOn(2) || f.DependsOn(3) {
		t.Fatal("DependsOn wrong")
	}
}

func BenchmarkISOP8Var(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	f := randomTT(8, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ISOP(f)
	}
}
