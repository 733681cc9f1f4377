// Package cache is the NPN-canonical synthesis result cache behind the
// serving subsystem: synthesized RQFP netlists are stored under a signature
// of the specification's function class, so a re-submitted function — or
// any function in the same NPN class — is answered with a stored netlist
// instead of minutes of CGP search (the paper's §3.2 runtime is dominated
// by fitness evaluation, which a cache hit skips entirely).
//
// Designs with at most NPNMaxVars inputs are canonicalized jointly over
// all outputs: one input permutation and negation vector shared by every
// output plus a per-output polarity, i.e. the multi-output generalization
// of single-output NPN classes. Because RQFP majority gates absorb any
// input/output inversion into their free inverter configurations
// (rqfp.TransformIO), a stored netlist converts to any member of its class
// without adding gates in the common case. Wider designs (up to MaxInputs)
// fall back to an exact truth-table signature. Either way, a hit is
// re-verified against the requesting specification by the caller before it
// is served, so a cache corruption can cost a redundant search but never a
// wrong circuit.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// MaxInputs bounds cacheable designs: signatures are computed from full
// truth tables, which stay cheap up to the same 14-input limit the
// resubstitution pass uses for its exhaustive oracle.
const MaxInputs = 14

// MaxOutputs bounds cacheable designs on the output side.
const MaxOutputs = 64

// ErrUncacheable is returned for designs outside the cacheable range.
var ErrUncacheable = errors.New("cache: design outside the cacheable range")

// Transform records how a specification maps onto its canonical class
// representative: canonical input i reads original input Perm[i],
// complemented when bit i of InputNeg is set, and canonical output k is
// original output k complemented when OutputNeg[k] — the multi-output
// generalization of a single-output NPN transform. The zero-value/nil
// Transform is the identity (exact-signature designs).
type Transform struct {
	N         int     `json:"n"`
	Perm      []uint8 `json:"perm"`
	InputNeg  uint32  `json:"input_neg"`
	OutputNeg []bool  `json:"output_neg"`
}

// Signature returns the cache key of a specification, plus the transform
// onto the canonical representative for NPN-canonicalized designs (nil for
// exact-signature designs). Functions in the same class share the key.
func Signature(tables []tt.TT) (string, *Transform, error) {
	if len(tables) == 0 || len(tables) > MaxOutputs {
		return "", nil, ErrUncacheable
	}
	n := tables[0].N
	if n < 1 || n > MaxInputs {
		return "", nil, ErrUncacheable
	}
	for _, f := range tables {
		if f.N != n {
			return "", nil, fmt.Errorf("cache: mixed input counts (%d vs %d)", f.N, n)
		}
	}
	if n <= NPNMaxVars {
		canon, tr := canonicalize(tables)
		key := make([]byte, 0, 12+9*len(canon))
		key = append(key, "npn:"...)
		key = strconv.AppendInt(key, int64(n), 10)
		key = append(key, ':')
		key = strconv.AppendInt(key, int64(len(tables)), 10)
		for _, w := range canon {
			key = append(key, ':')
			key = strconv.AppendUint(key, w, 16)
		}
		return string(key), &tr, nil
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d:%d", n, len(tables))
	for _, f := range tables {
		h.Write([]byte{':'})
		h.Write([]byte(f.Hex()))
	}
	return fmt.Sprintf("xct:%d:%d:%s", n, len(tables), hex.EncodeToString(h.Sum(nil))), nil, nil
}

// NPNMaxVars bounds joint NPN canonicalization: every candidate transform
// is tried, n!·2ⁿ of them (3,840 at five inputs), each with free
// per-output polarity.
const NPNMaxVars = 5

// pack flattens a ≤5-input truth table into one uint64.
func pack(f tt.TT) uint64 {
	return f.Bits[0] & (1<<(uint(1)<<uint(f.N)) - 1)
}

// deltaSwap permutes the bits of a packed table: the bits in mask trade
// places with the bits shift positions above them. One swap exchanges two
// inputs or negates one.
type deltaSwap struct {
	mask  uint64
	shift uint
}

func (d deltaSwap) apply(w uint64) uint64 {
	t := (w>>d.shift ^ w) & d.mask
	return w ^ t ^ t<<d.shift
}

// transformSet is the precomputed enumeration of all input transforms of
// one arity, shared by every canonicalization of that arity: the
// permutations in search order, for each the variable transpositions that
// permute a packed table, and the flips that negate one input.
type transformSet struct {
	mask  uint64 // the 2ⁿ valid table bits
	negs  uint32 // 2ⁿ input negations per permutation
	perms [][]uint8
	swaps [][]deltaSwap
	flips [NPNMaxVars]deltaSwap
}

var (
	transformSets [NPNMaxVars + 1]*transformSet
	transformOnce [NPNMaxVars + 1]sync.Once
)

func transformsFor(n int) *transformSet {
	transformOnce[n].Do(func() {
		size := uint(1) << uint(n)
		ts := &transformSet{mask: 1<<size - 1, negs: 1 << uint(n), perms: permutations(n)}
		// exchange(i, j) swaps variables i < j: assignments with bit i set
		// and bit j clear trade values with their partners 2ʲ−2ⁱ higher.
		exchange := func(i, j int) deltaSwap {
			d := deltaSwap{shift: 1<<uint(j) - 1<<uint(i)}
			for s := uint(0); s < size; s++ {
				if s>>uint(i)&1 == 1 && s>>uint(j)&1 == 0 {
					d.mask |= 1 << s
				}
			}
			return d
		}
		// Negating input i swaps each assignment with its partner 2ⁱ
		// higher.
		for i := 0; i < n; i++ {
			d := deltaSwap{shift: 1 << uint(i)}
			for s := uint(0); s < size; s++ {
				if s>>uint(i)&1 == 0 {
					d.mask |= 1 << s
				}
			}
			ts.flips[i] = d
		}
		// Selection sort of the identity onto each permutation: after the
		// swaps, canonical variable i holds original variable perm[i].
		for _, perm := range ts.perms {
			cur := make([]uint8, n)
			for i := range cur {
				cur[i] = uint8(i)
			}
			var swaps []deltaSwap
			for i := 0; i < n; i++ {
				for j := i + 1; cur[i] != perm[i]; j++ {
					if cur[j] == perm[i] {
						swaps = append(swaps, exchange(i, j))
						cur[i], cur[j] = cur[j], cur[i]
					}
				}
			}
			ts.swaps = append(ts.swaps, swaps)
		}
		transformSets[n] = ts
	})
	return transformSets[n]
}

// table returns packed table w under permutation p and input negation neg.
func (ts *transformSet) table(w uint64, p int, neg uint32) uint64 {
	for _, d := range ts.swaps[p] {
		w = d.apply(w)
	}
	for ; neg != 0; neg &= neg - 1 {
		w = ts.flips[bits.TrailingZeros32(neg)].apply(w)
	}
	return w
}

// canonicalize finds the lexicographically smallest output-table vector
// over all shared input permutations/negations with per-output polarity
// freedom, and the transform producing it from the input. Ties go to the
// transform enumerated first, permutation-major in permutations order
// with the negation vector counting up within each permutation.
//
// Each permutation's negations are walked in Gray-code order, so every
// step negates one input: one delta swap per output table. Outputs are
// permuted and negated lazily and compared one at a time, so a candidate
// that already loses on an early output costs nothing for the rest.
func canonicalize(tables []tt.TT) ([]uint64, Transform) {
	n, m := tables[0].N, len(tables)
	ts := transformsFor(n)
	scratch := make([]uint64, 3*m)
	best, cur, at := scratch[:m], scratch[m:2*m], scratch[2*m:]
	const stale = ^uint64(0) // at[k]: cur[k]'s negation vector, or stale

	var bestP int
	var bestNeg uint32
	for p := range ts.perms {
		for k := range at {
			at[k] = stale
		}
		for g := uint32(0); g < ts.negs; g++ {
			neg := g ^ g>>1
			better, lost := p == 0 && g == 0, false
			for k := 0; k < m && !lost; k++ {
				c := cur[k]
				if at[k] == stale {
					c = ts.table(pack(tables[k]), p, neg)
				} else {
					for d := uint32(at[k]) ^ neg; d != 0; d &= d - 1 {
						c = ts.flips[bits.TrailingZeros32(d)].apply(c)
					}
				}
				cur[k], at[k] = c, uint64(neg)
				if nc := ^c & ts.mask; nc < c {
					c = nc
				}
				switch {
				case better:
					best[k] = c
				case c > best[k]:
					lost = true
				case c < best[k]:
					better = true
					best[k] = c
				}
			}
			// A tie keeps the earlier transform: across permutations the
			// incumbent always came first, within one the smaller vector.
			if better || !lost && p == bestP && neg < bestNeg {
				bestP, bestNeg = p, neg
			}
		}
	}

	tr := Transform{
		N:         n,
		Perm:      append([]uint8(nil), ts.perms[bestP]...),
		InputNeg:  bestNeg,
		OutputNeg: make([]bool, m),
	}
	for k, f := range tables {
		tr.OutputNeg[k] = ts.table(pack(f), bestP, bestNeg) != best[k]
	}
	return best, tr
}

// permutations enumerates all permutations of 0..n-1 in a deterministic
// order.
func permutations(n int) [][]uint8 {
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

// Apply transforms original truth tables into the canonical representative:
// g_k(s) = f_k(x) ⊕ OutputNeg[k] with x[Perm[i]] = s_i ⊕ neg_i.
func (tr *Transform) Apply(tables []tt.TT) []tt.TT {
	if tr == nil {
		return tables
	}
	out := make([]tt.TT, len(tables))
	for k, f := range tables {
		g := tt.New(f.N)
		for s := uint(0); s < uint(f.Size()); s++ {
			var o uint
			for i := 0; i < f.N; i++ {
				bit := s >> uint(i) & 1
				if tr.InputNeg>>uint(i)&1 == 1 {
					bit ^= 1
				}
				if bit == 1 {
					o |= 1 << uint(tr.Perm[i])
				}
			}
			v := f.Get(o)
			if tr.OutputNeg[k] {
				v = !v
			}
			g.Set(s, v)
		}
		out[k] = g
	}
	return out
}

// Unapply inverts Apply, recovering the original tables from canonical
// ones: f_k(x) = g_k(s) ⊕ OutputNeg[k] with s_i = x[Perm[i]] ⊕ neg_i.
func (tr *Transform) Unapply(canon []tt.TT) []tt.TT {
	if tr == nil {
		return canon
	}
	out := make([]tt.TT, len(canon))
	for k, g := range canon {
		f := tt.New(g.N)
		for x := uint(0); x < uint(g.Size()); x++ {
			var s uint
			for i := 0; i < g.N; i++ {
				bit := x >> uint(tr.Perm[i]) & 1
				if tr.InputNeg>>uint(i)&1 == 1 {
					bit ^= 1
				}
				if bit == 1 {
					s |= 1 << uint(i)
				}
			}
			v := g.Get(s)
			if tr.OutputNeg[k] {
				v = !v
			}
			f.Set(x, v)
		}
		out[k] = f
	}
	return out
}

// CanonicalNetlist rewrites a netlist implementing the original function
// into one implementing the canonical representative (the store direction).
func (tr *Transform) CanonicalNetlist(n *rqfp.Netlist) (*rqfp.Netlist, error) {
	if tr == nil {
		return n, nil
	}
	if n.NumPI != tr.N || len(n.POs) != len(tr.OutputNeg) {
		return nil, fmt.Errorf("cache: netlist interface %d/%d does not match transform %d/%d",
			n.NumPI, len(n.POs), tr.N, len(tr.OutputNeg))
	}
	piMap := make([]int, tr.N)
	piNeg := make([]bool, tr.N)
	for i := 0; i < tr.N; i++ {
		piMap[tr.Perm[i]] = i
		piNeg[tr.Perm[i]] = tr.InputNeg>>uint(i)&1 == 1
	}
	return n.TransformIO(piMap, piNeg, tr.OutputNeg)
}

// OriginalNetlist rewrites a netlist implementing the canonical
// representative into one implementing the original function (the lookup
// direction — "the NPN transform un-applied").
func (tr *Transform) OriginalNetlist(n *rqfp.Netlist) (*rqfp.Netlist, error) {
	if tr == nil {
		return n, nil
	}
	if n.NumPI != tr.N || len(n.POs) != len(tr.OutputNeg) {
		return nil, fmt.Errorf("cache: netlist interface %d/%d does not match transform %d/%d",
			n.NumPI, len(n.POs), tr.N, len(tr.OutputNeg))
	}
	piMap := make([]int, tr.N)
	piNeg := make([]bool, tr.N)
	for i := 0; i < tr.N; i++ {
		piMap[i] = int(tr.Perm[i])
		piNeg[i] = tr.InputNeg>>uint(i)&1 == 1
	}
	return n.TransformIO(piMap, piNeg, tr.OutputNeg)
}
