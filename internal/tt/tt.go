// Package tt implements completely-specified truth tables over a small
// number of variables (up to 20) together with the classical manipulation
// algorithms used by logic synthesis: cofactoring, support computation, and
// the Minato-Morreale irredundant sum-of-products (ISOP) procedure. Truth
// tables are the specification format for the benchmark circuits and the
// intermediate form used by AIG refactoring.
package tt

import (
	"fmt"
	"strings"

	"github.com/reversible-eda/rcgp/internal/bits"
)

// MaxVars bounds the truth-table size; 2^20 bits = 128 KiB per table.
const MaxVars = 20

// TT is a completely specified Boolean function of N variables. Sample s of
// Bits holds f(s) where bit i of s is the value of variable i.
type TT struct {
	N    int
	Bits bits.Vec
}

// New returns the constant-false function of n variables.
func New(n int) TT {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("tt: variable count %d out of range", n))
	}
	w := bits.WordsFor(1 << uint(n))
	if w < 1 {
		w = 1
	}
	return TT{N: n, Bits: bits.NewWords(w)}
}

// FromFunc builds a truth table by evaluating f on all 2^n assignments.
func FromFunc(n int, f func(assignment uint) bool) TT {
	t := New(n)
	for s := uint(0); s < 1<<uint(n); s++ {
		if f(s) {
			t.Bits.Set(int(s), true)
		}
	}
	return t
}

// FromHex parses a truth table of n variables from a hexadecimal string
// (most significant nibble first, as conventionally printed).
func FromHex(n int, hex string) (TT, error) {
	if n < 0 || n > MaxVars {
		return TT{}, fmt.Errorf("tt: variable count %d out of range 0..%d", n, MaxVars)
	}
	t := New(n)
	bitsNeeded := 1 << uint(n)
	nibbles := (bitsNeeded + 3) / 4
	if len(hex) != nibbles {
		return TT{}, fmt.Errorf("tt: hex string %q has %d nibbles, want %d for %d vars", hex, len(hex), nibbles, n)
	}
	for i := 0; i < len(hex); i++ {
		c := hex[len(hex)-1-i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			return TT{}, fmt.Errorf("tt: invalid hex digit %q", c)
		}
		t.Bits[i/16] |= v << (uint(i) % 16 * 4)
	}
	return t, nil
}

// Hex renders the table as a hexadecimal string, MSB nibble first.
func (t TT) Hex() string {
	bitsTotal := 1 << uint(t.N)
	nibbles := (bitsTotal + 3) / 4
	var sb strings.Builder
	for i := nibbles - 1; i >= 0; i-- {
		v := t.Bits[i/16] >> (uint(i) % 16 * 4) & 0xF
		fmt.Fprintf(&sb, "%x", v)
	}
	return sb.String()
}

// Clone returns a deep copy of t.
func (t TT) Clone() TT { return TT{N: t.N, Bits: t.Bits.Clone()} }

// Get returns f at the given assignment.
func (t TT) Get(assignment uint) bool { return t.Bits.Get(int(assignment)) }

// Set assigns f at the given assignment.
func (t TT) Set(assignment uint, v bool) { t.Bits.Set(int(assignment), v) }

// Size returns the number of samples (2^N).
func (t TT) Size() int { return 1 << uint(t.N) }

// IsConst0 reports whether f is identically false.
func (t TT) IsConst0() bool {
	for _, w := range t.Bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsConst1 reports whether f is identically true.
func (t TT) IsConst1() bool {
	n := t.Size()
	full := n >> 6
	for i := 0; i < full; i++ {
		if t.Bits[i] != ^uint64(0) {
			return false
		}
	}
	if r := uint(n) & 63; r != 0 {
		if t.Bits[full]&((1<<r)-1) != (1<<r)-1 {
			return false
		}
	}
	// Tables with fewer than 64 samples live in word 0 with a masked tail.
	if n < 64 {
		return t.Bits[0]&((1<<uint(n))-1) == (1<<uint(n))-1
	}
	return true
}

// Equal reports whether t and u denote the same function (same N, same bits).
func (t TT) Equal(u TT) bool { return t.N == u.N && t.Bits.Eq(u.Bits) }

// CountOnes returns |f^{-1}(1)|.
func (t TT) CountOnes() int { return t.Bits.PopCount() }

// Not returns the complement of f.
func (t TT) Not() TT {
	r := New(t.N)
	r.Bits.Not(t.Bits)
	r.Bits.MaskTail(t.Size())
	return r
}

// And returns f AND g.
func (t TT) And(u TT) TT {
	r := New(t.N)
	r.Bits.And(t.Bits, u.Bits)
	return r
}

// Or returns f OR g.
func (t TT) Or(u TT) TT {
	r := New(t.N)
	r.Bits.Or(t.Bits, u.Bits)
	return r
}

// Xor returns f XOR g.
func (t TT) Xor(u TT) TT {
	r := New(t.N)
	r.Bits.Xor(t.Bits, u.Bits)
	return r
}

// Var returns the projection function x_v over n variables.
func Var(n, v int) TT {
	t := New(n)
	t.Bits.InputPattern(v)
	t.Bits.MaskTail(t.Size())
	return t
}

// Const returns the constant function of n variables.
func Const(n int, v bool) TT {
	t := New(n)
	if v {
		t.Bits.Ones(t.Size())
	}
	return t
}

// Cofactor0 returns f with variable v fixed to 0 (still over N variables).
func (t TT) Cofactor0(v int) TT {
	r := t.Clone()
	if v < 6 {
		shift := uint(1) << uint(v)
		mask := cofactorMask0(v)
		for i, w := range r.Bits {
			lo := w & mask
			r.Bits[i] = lo | lo<<shift
		}
		return r
	}
	period := 1 << (uint(v) - 6)
	for base := 0; base < len(r.Bits); base += 2 * period {
		for k := 0; k < period && base+period+k < len(r.Bits); k++ {
			r.Bits[base+period+k] = r.Bits[base+k]
		}
	}
	return r
}

// Cofactor1 returns f with variable v fixed to 1 (still over N variables).
func (t TT) Cofactor1(v int) TT {
	r := t.Clone()
	if v < 6 {
		shift := uint(1) << uint(v)
		mask := cofactorMask0(v)
		for i, w := range r.Bits {
			hi := w &^ mask
			r.Bits[i] = hi | hi>>shift
		}
		return r
	}
	period := 1 << (uint(v) - 6)
	for base := 0; base < len(r.Bits); base += 2 * period {
		for k := 0; k < period && base+period+k < len(r.Bits); k++ {
			r.Bits[base+k] = r.Bits[base+period+k]
		}
	}
	return r
}

// cofactorMask0 returns the word mask selecting positions where variable v
// (v < 6) is zero.
func cofactorMask0(v int) uint64 {
	masks := [6]uint64{
		0x5555555555555555,
		0x3333333333333333,
		0x0F0F0F0F0F0F0F0F,
		0x00FF00FF00FF00FF,
		0x0000FFFF0000FFFF,
		0x00000000FFFFFFFF,
	}
	return masks[v]
}

// DependsOn reports whether f functionally depends on variable v.
func (t TT) DependsOn(v int) bool {
	return !t.Cofactor0(v).Equal(t.Cofactor1(v))
}

// Support returns the indices of the variables f depends on.
func (t TT) Support() []int {
	var s []int
	for v := 0; v < t.N; v++ {
		if t.DependsOn(v) {
			s = append(s, v)
		}
	}
	return s
}

// String renders small tables as binary (MSB sample first), larger ones as hex.
func (t TT) String() string {
	if t.N <= 4 {
		var sb strings.Builder
		for s := t.Size() - 1; s >= 0; s-- {
			if t.Get(uint(s)) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		return sb.String()
	}
	return t.Hex()
}
