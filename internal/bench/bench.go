// Package bench generates the benchmark circuit specifications used in the
// RCGP paper's evaluation: small and large RevLib circuits [16] plus the
// reversible reciprocal circuits of Soeken et al. [17].
//
// RevLib is an online archive that cannot be vendored offline. Circuits
// whose functions are fully determined by their names or by public netlists
// are reproduced exactly (the 1-bit full adder, 4gt10, c17, the decoders,
// the graycode and hwb families, mux4). The remaining entries — alu, ham3,
// 4_49, mod5adder, and the intdivN reciprocal circuits — are *documented
// synthetic equivalents* with the same I/O counts and the same flavour of
// structure (see each generator's comment and EXPERIMENTS.md). The
// synthesis flow never looks inside these functions, so the substitution
// exercises exactly the same code paths.
package bench

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"github.com/reversible-eda/rcgp/internal/tt"
)

// Circuit is one benchmark specification.
type Circuit struct {
	Name        string
	NumPI       int
	NumPO       int
	Tables      []tt.TT
	Substituted bool   // true when the exact RevLib function is not public
	Description string // one-line provenance note
}

// GarbageLowerBound is the paper's g_lb = max(0, n_pi − n_po).
func (c Circuit) GarbageLowerBound() int {
	if c.NumPI > c.NumPO {
		return c.NumPI - c.NumPO
	}
	return 0
}

// Permutation returns the output map of a square circuit and whether it is
// a bijection — i.e. whether the benchmark is a genuinely reversible
// function.
func (c Circuit) Permutation() ([]uint, bool) {
	if c.NumPI != c.NumPO {
		return nil, false
	}
	size := 1 << uint(c.NumPI)
	perm := make([]uint, size)
	seen := make([]bool, size)
	for x := 0; x < size; x++ {
		var y uint
		for o := 0; o < c.NumPO; o++ {
			if c.Tables[o].Get(uint(x)) {
				y |= 1 << uint(o)
			}
		}
		perm[x] = y
		if seen[y] {
			return nil, false
		}
		seen[y] = true
	}
	return perm, true
}

func fromOutputs(name string, nPI, nPO int, sub bool, desc string, f func(x uint) uint) Circuit {
	tables := make([]tt.TT, nPO)
	for o := 0; o < nPO; o++ {
		o := o
		tables[o] = tt.FromFunc(nPI, func(s uint) bool { return f(s)>>uint(o)&1 == 1 })
	}
	return Circuit{Name: name, NumPI: nPI, NumPO: nPO, Tables: tables, Substituted: sub, Description: desc}
}

// FullAdder is the 1-bit full adder: outputs {sum, carry}.
func FullAdder() Circuit {
	return fromOutputs("1-bit full adder", 3, 2, false, "sum and carry of three input bits",
		func(x uint) uint {
			n := uint(bits.OnesCount(x & 7))
			return n&1 | (n>>1)<<1
		})
}

// Gt10 is RevLib 4gt10: one output, true iff the 4-bit input exceeds 10.
func Gt10() Circuit {
	return fromOutputs("4gt10", 4, 1, false, "[x > 10] over a 4-bit input",
		func(x uint) uint {
			if x&15 > 10 {
				return 1
			}
			return 0
		})
}

// ALU is a 5-input single-output ALU bit-slice. The RevLib "alu" function
// is not published with the paper, so this is a documented substitute: two
// select bits choose among AND, OR, XOR-with-carry, and NAND of the two
// operand bits.
func ALU() Circuit {
	return fromOutputs("alu", 5, 1, true,
		"substitute: s1s0 select among a·b, a+b, a⊕b⊕c, ¬(a·b)",
		func(x uint) uint {
			s := x & 3
			a := x >> 2 & 1
			b := x >> 3 & 1
			c := x >> 4 & 1
			var out uint
			switch s {
			case 0:
				out = a & b
			case 1:
				out = a | b
			case 2:
				out = a ^ b ^ c
			default:
				out = 1 &^ (a & b)
			}
			return out
		})
}

// C17 is the ISCAS-85 c17 benchmark: six NAND2 gates, inputs
// (1,2,3,6,7) and outputs (22,23). Reproduced exactly from the published
// netlist.
func C17() Circuit {
	return fromOutputs("c17", 5, 2, false, "ISCAS-85 c17 NAND network",
		func(x uint) uint {
			n1 := x&1 == 1
			n2 := x>>1&1 == 1
			n3 := x>>2&1 == 1
			n6 := x>>3&1 == 1
			n7 := x>>4&1 == 1
			nand := func(a, b bool) bool { return !(a && b) }
			n10 := nand(n1, n3)
			n11 := nand(n3, n6)
			n16 := nand(n2, n11)
			n19 := nand(n11, n7)
			n22 := nand(n10, n16)
			n23 := nand(n16, n19)
			var out uint
			if n22 {
				out |= 1
			}
			if n23 {
				out |= 2
			}
			return out
		})
}

// Decoder is the n-to-2^n line decoder (decoder_2_4, decoder_3_8).
func Decoder(n int) Circuit {
	return fromOutputs(fmt.Sprintf("decoder_%d_%d", n, 1<<uint(n)), n, 1<<uint(n), false,
		"one-hot line decoder",
		func(x uint) uint { return 1 << (x & (1<<uint(n) - 1)) })
}

// Graycode is the n-bit binary-to-Gray converter (graycode4, graycode6).
func Graycode(n int) Circuit {
	return fromOutputs(fmt.Sprintf("graycode%d", n), n, n, false, "binary to Gray code",
		func(x uint) uint {
			m := x & (1<<uint(n) - 1)
			return m ^ m>>1
		})
}

// Ham3 is a 3-bit reversible permutation standing in for RevLib ham3 (the
// exact permutation is not published with the paper): x ↦ (3x+1) mod 8,
// a fixed bijection on 3 bits.
func Ham3() Circuit {
	return fromOutputs("ham3", 3, 3, true, "substitute: bijection x ↦ (3x+1) mod 8",
		func(x uint) uint { return (3*(x&7) + 1) % 8 })
}

// Mux4 is the 4-to-1 multiplexer: data d0..d3 on inputs 0..3, select on
// inputs 4..5.
func Mux4() Circuit {
	return fromOutputs("mux4", 6, 1, false, "4-to-1 multiplexer",
		func(x uint) uint {
			sel := x >> 4 & 3
			return x >> sel & 1
		})
}

// Perm4x49 is a 4-bit nonlinear bijection standing in for RevLib 4_49:
// x ↦ ((x+1)³ mod 17) − 1, the cubing permutation over GF(17) shifted onto
// 0..15.
func Perm4x49() Circuit {
	return fromOutputs("4_49", 4, 4, true, "substitute: cubing bijection over GF(17)",
		func(x uint) uint {
			v := (x & 15) + 1
			c := v * v % 17 * v % 17
			return c - 1
		})
}

// Mod5Adder stands in for RevLib mod5adder: low three outputs carry
// (a+b) mod 5 when both 3-bit operands are below 5 (a+b mod 8 otherwise, to
// make the function total); the high three outputs pass b through.
func Mod5Adder() Circuit {
	return fromOutputs("mod5adder", 6, 6, true,
		"substitute: (a+b) mod 5 with pass-through of b",
		func(x uint) uint {
			a := x & 7
			b := x >> 3 & 7
			var s uint
			if a < 5 && b < 5 {
				s = (a + b) % 5
			} else {
				s = (a + b) % 8
			}
			return s | b<<3
		})
}

// HWB is the n-bit hidden-weighted-bit reversible benchmark: the input is
// rotated left by its Hamming weight (hwb8 in the paper). The rotation
// distance is weight-invariant, so the map is a bijection.
func HWB(n int) Circuit {
	return fromOutputs(fmt.Sprintf("hwb%d", n), n, n, false,
		"rotate input left by its Hamming weight",
		func(x uint) uint {
			m := x & (1<<uint(n) - 1)
			w := uint(bits.OnesCount(m)) % uint(n)
			return (m<<w | m>>(uint(n)-w)) & (1<<uint(n) - 1)
		})
}

// IntDiv stands in for the reversible reciprocal circuits intdivN of
// Soeken et al. [17]: y = ⌊(2ⁿ−1)/x⌋ for x ≥ 1 and y = 2ⁿ−1 for x = 0 (the
// fixed-point reciprocal of an n-bit integer).
func IntDiv(n int) Circuit {
	return fromOutputs(fmt.Sprintf("intdiv%d", n), n, n, true,
		"substitute: fixed-point reciprocal ⌊(2ⁿ−1)/x⌋",
		func(x uint) uint {
			m := x & (1<<uint(n) - 1)
			if m == 0 {
				return 1<<uint(n) - 1
			}
			return (1<<uint(n) - 1) / m
		})
}

// Table1 returns the paper's Table 1 workload (small RevLib circuits).
func Table1() []Circuit {
	return []Circuit{
		FullAdder(),
		Gt10(),
		ALU(),
		C17(),
		Decoder(2),
		Decoder(3),
		Graycode(4),
		Ham3(),
		Mux4(),
	}
}

// Table2 returns the paper's Table 2 workload (large RevLib circuits and
// the reversible reciprocal circuits).
func Table2() []Circuit {
	cs := []Circuit{
		Perm4x49(),
		Graycode(6),
		Mod5Adder(),
		HWB(8),
	}
	for n := 4; n <= 10; n++ {
		cs = append(cs, IntDiv(n))
	}
	return cs
}

// All returns every benchmark circuit, Table 1 first.
func All() []Circuit { return append(Table1(), Table2()...) }

// ByName finds a circuit by its name or a RevLib-style alias such as
// "4_49_7" or "hwb8_64" (the numeric suffix identifies the archive file).
func ByName(name string) (Circuit, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	var names []string
	for _, c := range All() {
		cn := strings.ToLower(c.Name)
		if cn == want || strings.HasPrefix(want, cn+"_") || cn == "1-bit full adder" && (want == "fulladder" || want == "full_adder") {
			return c, nil
		}
		names = append(names, c.Name)
	}
	sort.Strings(names)
	return Circuit{}, fmt.Errorf("bench: unknown circuit %q (known: %s)", name, strings.Join(names, ", "))
}
