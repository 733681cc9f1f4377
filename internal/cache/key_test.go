package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/reversible-eda/rcgp/internal/tt"
)

// ttFromBits builds an n-variable table from a packed bit vector.
func ttFromBits(n int, w uint64) tt.TT {
	f := tt.New(n)
	for s := uint(0); s < 1<<uint(n); s++ {
		if w>>s&1 == 1 {
			f.Set(s, true)
		}
	}
	return f
}

// The cache-key satellite: exhaustively canonicalize ALL 65536 4-input
// functions and check that (a) the signatures partition them into exactly
// the 222 known NPN equivalence classes, (b) the recorded transform
// round-trips (Apply reaches the canonical table, Unapply recovers the
// original), and (c) random NPN-equivalent variants of a function map to
// the same signature. Runs under -race in CI like every other test.
func TestSignatureExhaustive4Input(t *testing.T) {
	classes := make(map[string][]uint64)
	for w := uint64(0); w < 1<<16; w++ {
		f := ttFromBits(4, w)
		key, tr, err := Signature([]tt.TT{f})
		if err != nil {
			t.Fatalf("function %04x: %v", w, err)
		}
		if tr == nil {
			t.Fatalf("function %04x: no transform for an NPN-range design", w)
		}
		classes[key] = append(classes[key], w)

		// Transform round trip at the truth-table level.
		canon := tr.Apply([]tt.TT{f})
		if got := pack(canon[0]); got != packFromKeyCheck(t, key) {
			t.Fatalf("function %04x: Apply produced %04x, key says %04x", w, got, packFromKeyCheck(t, key))
		}
		back := tr.Unapply(canon)
		if !back[0].Equal(f) {
			t.Fatalf("function %04x: Unapply(Apply(f)) != f", w)
		}
	}
	if len(classes) != 222 {
		t.Fatalf("4-input functions partition into %d signatures, want 222 NPN classes", len(classes))
	}

	// NPN-equivalent variants share the signature: spot-check with random
	// transforms of a deterministic sample of functions.
	rng := rand.New(rand.NewSource(4))
	for w := uint64(0); w < 1<<16; w += 97 {
		f := ttFromBits(4, w)
		key, _, _ := Signature([]tt.TT{f})
		for trial := 0; trial < 3; trial++ {
			g := randomNPNVariant(rng, f)
			gkey, _, err := Signature([]tt.TT{g})
			if err != nil {
				t.Fatal(err)
			}
			if gkey != key {
				t.Fatalf("function %04x: NPN variant got signature %q, want %q", w, gkey, key)
			}
		}
	}
}

// packFromKeyCheck parses the canonical table back out of an "npn:" key.
func packFromKeyCheck(t *testing.T, key string) uint64 {
	t.Helper()
	var n, m int
	var w uint64
	if _, err := fmt.Sscanf(key, "npn:%d:%d:%x", &n, &m, &w); err != nil {
		t.Fatalf("unparseable key %q: %v", key, err)
	}
	return w
}

// randomNPNVariant applies a uniformly random input permutation, input
// negation, and output polarity to f.
func randomNPNVariant(rng *rand.Rand, f tt.TT) tt.TT {
	n := f.N
	perm := rng.Perm(n)
	neg := uint(rng.Intn(1 << uint(n)))
	outNeg := rng.Intn(2) == 1
	g := tt.New(n)
	for x := uint(0); x < 1<<uint(n); x++ {
		var y uint
		for i := 0; i < n; i++ {
			bit := x >> uint(i) & 1
			if neg>>uint(i)&1 == 1 {
				bit ^= 1
			}
			if bit == 1 {
				y |= 1 << uint(perm[i])
			}
		}
		v := f.Get(y)
		if outNeg {
			v = !v
		}
		g.Set(x, v)
	}
	return g
}

// Three-input functions fall into the 14 classical NPN classes.
func TestSignatureExhaustive3Input(t *testing.T) {
	classes := make(map[string]bool)
	for w := uint64(0); w < 1<<8; w++ {
		key, _, err := Signature([]tt.TT{ttFromBits(3, w)})
		if err != nil {
			t.Fatal(err)
		}
		classes[key] = true
	}
	if len(classes) != 14 {
		t.Fatalf("3-input functions partition into %d signatures, want 14 NPN classes", len(classes))
	}
}

// The brute-force canonicalizer that canonicalize replaced, kept verbatim
// (its names prefixed ref) as the differential reference: every
// (permutation, negation) transform remaps each table bit by bit, and the
// first lexicographically smallest candidate wins.

// refTransformSet is the precomputed enumeration of all input transforms of
// one arity: for every (permutation, input-negation) pair, remaps holds
// the original assignment each canonical assignment reads. Shared across
// all canonicalizations of that arity — the per-call work is then a pure
// table walk.
type refTransformSet struct {
	perms  [][]uint8
	negs   uint32
	remaps [][]uint8 // [perm*negs+neg][canonical s] = original assignment
}

var (
	refTransformSets [NPNMaxVars + 1]*refTransformSet
	refTransformOnce [NPNMaxVars + 1]sync.Once
)

func refTransformsFor(n int) *refTransformSet {
	refTransformOnce[n].Do(func() {
		size := uint(1) << uint(n)
		negs := uint32(1) << uint(n)
		ts := &refTransformSet{perms: refPermutations(n), negs: negs}
		ts.remaps = make([][]uint8, 0, len(ts.perms)*int(negs))
		for _, perm := range ts.perms {
			for neg := uint32(0); neg < negs; neg++ {
				remap := make([]uint8, size)
				for s := uint(0); s < size; s++ {
					var o uint8
					for i := 0; i < n; i++ {
						bit := s >> uint(i) & 1
						if neg>>uint(i)&1 == 1 {
							bit ^= 1
						}
						if bit == 1 {
							o |= 1 << uint(perm[i])
						}
					}
					remap[s] = o
				}
				ts.remaps = append(ts.remaps, remap)
			}
		}
		refTransformSets[n] = ts
	})
	return refTransformSets[n]
}

// canonicalizeRef finds the lexicographically smallest output-table vector
// over all shared input permutations/negations with per-output polarity
// freedom, and the transform producing it from the input.
func canonicalizeRef(tables []tt.TT) ([]uint64, Transform) {
	n := tables[0].N
	size := uint(1) << uint(n)
	mask := uint64(1)<<size - 1
	packed := make([]uint64, len(tables))
	for k, f := range tables {
		packed[k] = refPack(f)
	}

	ts := refTransformsFor(n)
	cand := make([]uint64, len(tables))
	candNeg := make([]bool, len(tables))
	best := make([]uint64, len(tables))
	var bestTr Transform
	first := true

	for t, remap := range ts.remaps {
		for k, w := range packed {
			var b uint64
			for s := uint(0); s < size; s++ {
				b |= (w >> remap[s] & 1) << s
			}
			if nb := ^b & mask; nb < b {
				cand[k], candNeg[k] = nb, true
			} else {
				cand[k], candNeg[k] = b, false
			}
		}
		if first || refLexLess(cand, best) {
			first = false
			copy(best, cand)
			bestTr = Transform{
				N:         n,
				Perm:      append([]uint8(nil), ts.perms[t/int(ts.negs)]...),
				InputNeg:  uint32(t) % ts.negs,
				OutputNeg: append([]bool(nil), candNeg...),
			}
		}
	}
	return best, bestTr
}

func refLexLess(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// refPermutations enumerates all permutations of 0..n-1 in a deterministic
// order.
func refPermutations(n int) [][]uint8 {
	base := make([]uint8, n)
	for i := range base {
		base[i] = uint8(i)
	}
	var out [][]uint8
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			p := make([]uint8, n)
			copy(p, base)
			out = append(out, p)
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// refPack is the bit-by-bit pack the reference was written against.
func refPack(f tt.TT) uint64 {
	var w uint64
	for s := uint(0); s < uint(f.Size()); s++ {
		if f.Get(s) {
			w |= 1 << s
		}
	}
	return w
}

// checkAgainstRef asserts that canonicalize returns the reference's
// canonical words and the reference's transform, tie-break included.
func checkAgainstRef(t *testing.T, tables []tt.TT) {
	t.Helper()
	got, gotTr := canonicalize(tables)
	want, wantTr := canonicalizeRef(tables)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tables %v: canonical words %x, reference %x", hexes(tables), got, want)
	}
	if !reflect.DeepEqual(gotTr, wantTr) {
		t.Fatalf("tables %v: transform %+v, reference %+v", hexes(tables), gotTr, wantTr)
	}
}

func hexes(tables []tt.TT) []string {
	out := make([]string, len(tables))
	for k, f := range tables {
		out[k] = f.Hex()
	}
	return out
}

// randomTables draws m n-input tables, mixing the shapes that stress the
// tie-break: constants, duplicated and complemented outputs, literals,
// sparse functions with large symmetry groups, and uniform noise.
func randomTables(rng *rand.Rand, n, m int) []tt.TT {
	size := uint(1) << uint(n)
	tables := make([]tt.TT, m)
	for k := range tables {
		switch c := rng.Intn(7); {
		case c == 0:
			tables[k] = tt.Const(n, rng.Intn(2) == 1)
		case c == 1 && k > 0:
			tables[k] = tables[rng.Intn(k)]
		case c == 2 && k > 0:
			tables[k] = tables[rng.Intn(k)].Not()
		case c == 3:
			tables[k] = tt.Var(n, rng.Intn(n))
		case c == 4:
			var w uint64
			for i := rng.Intn(3); i >= 0; i-- {
				w |= 1 << uint(rng.Intn(int(size)))
			}
			tables[k] = ttFromBits(n, w)
		default:
			tables[k] = ttFromBits(n, rng.Uint64()&(1<<size-1))
		}
	}
	return tables
}

// The fast canonicalizer must be a drop-in replacement: identical
// canonical words and an identical Transform (Perm, InputNeg, OutputNeg)
// on every single-output function of up to four inputs and on seeded
// random five-input designs with 1–16 outputs. Any difference would
// re-key starter.jsonl, the result cache and the fleet's replicated
// library.
func TestCanonicalizeMatchesReference(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for w := uint64(0); w < 1<<(1<<uint(n)); w++ {
			checkAgainstRef(t, []tt.TT{ttFromBits(n, w)})
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		checkAgainstRef(t, randomTables(rng, 5, 1+i%16))
	}
}

// FuzzSignature checks canonicalize against the reference and the
// transform round trip on arbitrary designs of 1–5 inputs and 1–16
// outputs: byte 0 picks the arity, byte 1 the output count, and the rest
// fill the tables (missing bytes read as zero).
func FuzzSignature(f *testing.F) {
	f.Add([]byte{2, 1, 0xe8, 0x96})
	f.Add([]byte{4, 3, 0x00, 0x00, 0xff, 0xff, 0x00, 0x00})
	f.Add([]byte{3, 15, 0x69, 0x96, 0x17, 0xe8, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, m := 1+int(data[0])%NPNMaxVars, 1+int(data[1])%16
		data = data[2:]
		size := 1 << uint(n)
		tables := make([]tt.TT, m)
		for k := range tables {
			var w uint64
			for b := 0; b < (size+7)/8; b++ {
				if len(data) > 0 {
					w |= uint64(data[0]) << (8 * uint(b))
					data = data[1:]
				}
			}
			tables[k] = ttFromBits(n, w&(1<<uint(size)-1))
		}
		checkAgainstRef(t, tables)
		key, tr, err := Signature(tables)
		if err != nil {
			t.Fatal(err)
		}
		canon := tr.Apply(tables)
		for k, g := range canon {
			if w := pack(g); !strings.Contains(key+":", fmt.Sprintf(":%x:", w)) {
				t.Fatalf("Apply output %d = %x is not in key %q", k, w, key)
			}
		}
		if back := tr.Unapply(canon); !reflect.DeepEqual(hexes(back), hexes(tables)) {
			t.Fatalf("Unapply(Apply(f)) = %v, want %v", hexes(back), hexes(tables))
		}
	})
}

// signatureSink keeps BenchmarkSignature5's calls from being optimized
// away.
var signatureSink string

// BenchmarkSignature5 keys five-input designs with 1–6 outputs, the
// window shapes template matching canonicalizes.
func BenchmarkSignature5(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cases := make([][]tt.TT, 60)
	for i := range cases {
		cases[i] = randomTables(rng, 5, 1+i%6)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, _, err := Signature(cases[i%len(cases)])
		if err != nil {
			b.Fatal(err)
		}
		signatureSink = key
	}
}

// Classic NPN class counts: 1-input functions form 2 classes, 2-input
// functions 4, and 3-input functions 14.
func TestSignatureNPNClassCounts(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 2}, {2, 4}, {3, 14}} {
		classes := make(map[string]bool)
		for w := uint64(0); w < 1<<(1<<uint(c.n)); w++ {
			key, _, err := Signature([]tt.TT{ttFromBits(c.n, w)})
			if err != nil {
				t.Fatal(err)
			}
			classes[key] = true
		}
		if len(classes) != c.want {
			t.Fatalf("n=%d: %d NPN classes, want %d", c.n, len(classes), c.want)
		}
	}
}

// Every polarity variant of MAJ3 shares one class (majority is self-dual,
// so RQFP inverter configurations make all of them free), and XOR3 sits
// in another.
func TestSignatureMajoritySelfDual(t *testing.T) {
	key := func(f tt.TT) string {
		t.Helper()
		k, _, err := Signature([]tt.TT{f})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	maj := key(tt.FromFunc(3, func(s uint) bool { return s&1+s>>1&1+s>>2&1 >= 2 }))
	// ¬MAJ(ā, b, c̄): inputs 0 and 2 and the output complemented.
	variant := key(tt.FromFunc(3, func(s uint) bool { return (s&1^1)+s>>1&1+(s>>2&1^1) < 2 }))
	if variant != maj {
		t.Fatalf("majority polarity variant keyed %q, majority %q", variant, maj)
	}
	xor := key(tt.FromFunc(3, func(s uint) bool { return s&1^s>>1&1^s>>2&1 == 1 }))
	if xor == maj {
		t.Fatal("XOR3 and MAJ3 share a class")
	}
	if xnor := key(tt.FromFunc(3, func(s uint) bool { return s&1^s>>1&1^s>>2&1 == 0 })); xnor != xor {
		t.Fatalf("XNOR3 keyed %q, XOR3 %q", xnor, xor)
	}
}

// The identity transform leaves a function unchanged.
func TestTransformApplyIdentity(t *testing.T) {
	f := tt.FromFunc(3, func(s uint) bool { return s == 5 || s == 6 })
	tr := &Transform{N: 3, Perm: []uint8{0, 1, 2}, OutputNeg: []bool{false}}
	if got := tr.Apply([]tt.TT{f}); !got[0].Equal(f) {
		t.Fatal("identity transform changed the function")
	}
}

// The recorded transform carries each design onto the representative its
// key names, for random designs of 1–5 inputs and 1–3 outputs.
func TestSignatureTransformReachesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		tables := randomTables(rng, 1+rng.Intn(NPNMaxVars), 1+rng.Intn(3))
		key, tr, err := Signature(tables)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("npn:%d:%d", tables[0].N, len(tables))
		for _, g := range tr.Apply(tables) {
			want += fmt.Sprintf(":%x", pack(g))
		}
		if key != want {
			t.Fatalf("trial %d: Apply reaches %q, key is %q", trial, want, key)
		}
	}
}

// Random NPN transforms of a function leave its key unchanged.
func TestSignatureInvariantUnderRandomTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(NPNMaxVars-1)
		f := randomTables(rng, n, 1)[0]
		key, _, err := Signature([]tt.TT{f})
		if err != nil {
			t.Fatal(err)
		}
		g := randomNPNVariant(rng, f)
		if gkey, _, _ := Signature([]tt.TT{g}); gkey != key {
			t.Fatalf("trial %d: f = %s keyed %q, NPN variant %s keyed %q", trial, f, key, g, gkey)
		}
	}
}

// Multi-output designs must canonicalize under one shared input transform:
// swapping inputs or complementing outputs of a 2→4 decoder lands on the
// same signature, while a genuinely different function pair does not.
func TestSignatureMultiOutput(t *testing.T) {
	decoder := func(swap bool, flip uint) []tt.TT {
		tables := make([]tt.TT, 4)
		for o := range tables {
			o := o
			tables[o] = tt.FromFunc(2, func(s uint) bool {
				if swap {
					s = s>>1&1 | s&1<<1
				}
				return (s ^ flip) == uint(o)
			})
		}
		return tables
	}
	base, trBase, err := Signature(decoder(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	if trBase == nil {
		t.Fatal("2-input design should be NPN-canonicalized")
	}
	if k, _, _ := Signature(decoder(true, 0)); k != base {
		t.Fatalf("input-swapped decoder got a different signature")
	}
	if k, _, _ := Signature(decoder(false, 3)); k != base {
		t.Fatalf("input-negated decoder got a different signature")
	}
	// Complement every output: per-output polarity freedom must absorb it.
	inv := decoder(false, 0)
	for i := range inv {
		inv[i] = inv[i].Not()
	}
	if k, _, _ := Signature(inv); k != base {
		t.Fatalf("output-complemented decoder got a different signature")
	}
	// A different function (constant outputs) must not collide.
	other := []tt.TT{tt.Const(2, true), tt.Const(2, false), tt.Const(2, true), tt.Const(2, false)}
	if k, _, _ := Signature(other); k == base {
		t.Fatalf("distinct functions share a signature")
	}
}

func TestSignatureRanges(t *testing.T) {
	if _, _, err := Signature(nil); err == nil {
		t.Fatal("empty table list accepted")
	}
	wide := []tt.TT{tt.New(MaxInputs + 1)}
	if _, _, err := Signature(wide); err == nil {
		t.Fatal("too-wide design accepted")
	}
	// A 6-input design is cacheable but exact-keyed (no transform).
	key, tr, err := Signature([]tt.TT{tt.Var(6, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		t.Fatal("6-input design unexpectedly NPN-canonicalized")
	}
	if key == "" {
		t.Fatal("empty exact key")
	}
	// Exact keys still distinguish functions and recognise identity.
	key2, _, _ := Signature([]tt.TT{tt.Var(6, 0)})
	key3, _, _ := Signature([]tt.TT{tt.Var(6, 1)})
	if key != key2 || key == key3 {
		t.Fatalf("exact keys broken: %q %q %q", key, key2, key3)
	}
}
