// Package bits provides bit-parallel simulation vectors for logic
// simulation. A Vec packs one Boolean value per simulated input pattern
// into 64-bit words, so a single machine word evaluates 64 patterns of a
// gate at once. All combinational substrates in this repository (AIG, MIG,
// RQFP netlists) simulate on Vec values.
package bits

import (
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"strings"
)

// Vec is a packed vector of Boolean samples. Bit i of word w holds sample
// number 64*w+i. Vectors taking part in one operation must have the same
// word length; the tail bits beyond the logical sample count are kept zero
// by the masking helpers.
type Vec []uint64

// WordsFor returns the number of 64-bit words needed for n samples.
func WordsFor(n int) int { return (n + 63) / 64 }

// New returns an all-zero vector able to hold n samples.
func New(n int) Vec { return make(Vec, WordsFor(n)) }

// NewWords returns an all-zero vector of exactly w words.
func NewWords(w int) Vec { return make(Vec, w) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Get reports the value of sample i.
func (v Vec) Get(i int) bool { return v[i>>6]>>(uint(i)&63)&1 == 1 }

// Set assigns sample i.
func (v Vec) Set(i int, b bool) {
	if b {
		v[i>>6] |= 1 << (uint(i) & 63)
	} else {
		v[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Fill sets every word of v to the given word pattern.
func (v Vec) Fill(word uint64) {
	for i := range v {
		v[i] = word
	}
}

// Ones sets the first n samples of v to one and clears the rest.
func (v Vec) Ones(n int) {
	v.Fill(^uint64(0))
	v.MaskTail(n)
}

// MaskTail clears all samples at index n and beyond.
func (v Vec) MaskTail(n int) {
	w := n >> 6
	if w >= len(v) {
		return
	}
	if r := uint(n) & 63; r != 0 {
		v[w] &= (1 << r) - 1
		w++
	}
	for ; w < len(v); w++ {
		v[w] = 0
	}
}

// And stores x AND y into v.
func (v Vec) And(x, y Vec) {
	for i := range v {
		v[i] = x[i] & y[i]
	}
}

// Or stores x OR y into v.
func (v Vec) Or(x, y Vec) {
	for i := range v {
		v[i] = x[i] | y[i]
	}
}

// Xor stores x XOR y into v.
func (v Vec) Xor(x, y Vec) {
	for i := range v {
		v[i] = x[i] ^ y[i]
	}
}

// Not stores NOT x into v. The caller is responsible for masking tail bits
// if the logical sample count is not a multiple of 64.
func (v Vec) Not(x Vec) {
	for i := range v {
		v[i] = ^x[i]
	}
}

// Maj stores the three-input majority MAJ(x,y,z) = xy + xz + yz into v.
func (v Vec) Maj(x, y, z Vec) {
	for i := range v {
		v[i] = x[i]&y[i] | x[i]&z[i] | y[i]&z[i]
	}
}

// Mux stores s ? x : y into v (per-bit multiplexer).
func (v Vec) Mux(s, x, y Vec) {
	for i := range v {
		v[i] = s[i]&x[i] | ^s[i]&y[i]
	}
}

// Eq reports whether v and x agree on every word.
func (v Vec) Eq(x Vec) bool {
	for i := range v {
		if v[i] != x[i] {
			return false
		}
	}
	return true
}

// PopCount returns the number of one bits in v.
func (v Vec) PopCount() int {
	n := 0
	for _, w := range v {
		n += mathbits.OnesCount64(w)
	}
	return n
}

// HammingDistance returns the number of samples on which v and x differ.
func (v Vec) HammingDistance(x Vec) int { return XorPopcount(v, x) }

// TailMask returns the mask selecting the valid bits of the last of w words
// holding n samples: all ones when the last word is fully populated.
func TailMask(n, w int) uint64 {
	if r := uint(n) & 63; n < w*64 && r != 0 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

// Randomize fills v with pseudo-random bits from r.
func (v Vec) Randomize(r *rand.Rand) {
	for i := range v {
		v[i] = r.Uint64()
	}
}

// Hash returns an FNV-style 64-bit hash of the vector contents, used by
// simulation-based equivalence-class bucketing.
func (v Vec) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range v {
		h ^= w
		h *= prime
	}
	return h
}

// String renders the first min(64, 64*len(v)) samples LSB-first, mostly for
// debugging and test failure messages.
func (v Vec) String() string {
	if len(v) == 0 {
		return ""
	}
	var sb strings.Builder
	n := 64
	for i := 0; i < n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if len(v) > 1 {
		fmt.Fprintf(&sb, "... (+%d words)", len(v)-1)
	}
	return sb.String()
}

// InputPattern fills v with the canonical exhaustive pattern of input
// variable `varIdx` over `numInputs` variables: sample s gets bit
// (s >> varIdx) & 1. For varIdx < 6 this is one of the classic simulation
// constants (0xAAAA..., 0xCCCC..., ...). The vector must hold at least
// 2^numInputs samples; extra samples periodically repeat the pattern.
func (v Vec) InputPattern(varIdx int) {
	if varIdx < 6 {
		v.Fill(patterns[varIdx])
		return
	}
	period := 1 << (uint(varIdx) - 6) // in words
	for w := range v {
		if w/period%2 == 1 {
			v[w] = ^uint64(0)
		} else {
			v[w] = 0
		}
	}
}

var patterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// ExhaustiveInputs returns, for each of n input variables, a vector holding
// the full 2^n exhaustive stimulus (at least one word each).
func ExhaustiveInputs(n int) []Vec {
	words := WordsFor(1 << uint(n))
	if words < 1 {
		words = 1
	}
	ins := make([]Vec, n)
	for i := range ins {
		ins[i] = NewWords(words)
		ins[i].InputPattern(i)
	}
	return ins
}

// RandomInputs returns n vectors of the given word count filled with random
// stimulus from r.
func RandomInputs(n, words int, r *rand.Rand) []Vec {
	ins := make([]Vec, n)
	for i := range ins {
		ins[i] = NewWords(words)
		ins[i].Randomize(r)
	}
	return ins
}
