package aig

import (
	"sort"

	"github.com/reversible-eda/rcgp/internal/tt"
)

// Cut-based rewriting parameters: 4-feasible cuts, bounded cut sets per
// node, as in classical DAG-aware rewriting.
const (
	cutK        = 4
	cutsPerNode = 8
)

// cut is a set of at most cutK leaves, held inline so that enumerating and
// merging cuts allocates nothing per cut.
type cut struct {
	leaves [cutK]int32 // sorted node ids; the first n are valid
	n      int
	sign   uint64 // bloom signature for fast domination tests
}

func trivialCut(node int) cut {
	c := cut{n: 1, sign: 1 << (uint(node) & 63)}
	c.leaves[0] = int32(node)
	return c
}

// dominates reports whether c's leaf set is a subset of d's.
func (c *cut) dominates(d *cut) bool {
	if c.sign&^d.sign != 0 || c.n > d.n {
		return false
	}
	i := 0
	for _, l := range d.leaves[:d.n] {
		if i < c.n && c.leaves[i] == l {
			i++
		}
	}
	return i == c.n
}

func mergeCuts(a, b *cut) (cut, bool) {
	var out cut
	i, j := 0, 0
	for i < a.n || j < b.n {
		if out.n == cutK {
			return cut{}, false
		}
		var l int32
		switch {
		case j >= b.n || (i < a.n && a.leaves[i] < b.leaves[j]):
			l = a.leaves[i]
			i++
		case i >= a.n || b.leaves[j] < a.leaves[i]:
			l = b.leaves[j]
			j++
		default:
			l = a.leaves[i]
			i++
			j++
		}
		out.leaves[out.n] = l
		out.n++
		out.sign |= 1 << (uint(l) & 63)
	}
	return out, true
}

// enumerateCuts computes bounded 4-feasible cut sets bottom-up.
func (a *AIG) enumerateCuts() [][]cut {
	cuts := make([][]cut, a.NumNodes())
	// All cut sets live back to back in one arena. When append moves it,
	// the sets already handed out keep the old array, which nothing writes
	// again.
	var arena, set []cut
	for n := 0; n < a.NumNodes(); n++ {
		set = set[:0]
		if a.IsAnd(n) {
			c0 := cuts[a.fanin0[n].Node()]
			c1 := cuts[a.fanin1[n].Node()]
			for x := range c0 {
				for y := range c1 {
					m, ok := mergeCuts(&c0[x], &c1[y])
					if !ok {
						continue
					}
					dominated := false
					for e := range set {
						if set[e].dominates(&m) {
							dominated = true
							break
						}
					}
					if !dominated {
						set = append(set, m)
					}
				}
			}
			// Prefer small cuts; keep a bounded number plus the trivial cut.
			sort.Slice(set, func(i, j int) bool { return set[i].n < set[j].n })
			if len(set) > cutsPerNode {
				set = set[:cutsPerNode]
			}
		}
		start := len(arena)
		arena = append(append(arena, set...), trivialCut(n))
		cuts[n] = arena[start:len(arena):len(arena)]
	}
	return cuts
}

var cutPatterns = [cutK]uint16{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}

// coneVal is the local function of one node inside a cut's cone.
type coneVal struct {
	node int32
	tt   uint16
}

// cutTT computes the local function of root over the cut leaves as a
// 16-bit truth table (variable i = leaves[i]). It evaluates all 16 rows, so
// a k-leaf cut's table is its k-input function replicated to 4 inputs.
// The cone of a 4-cut has a handful of nodes, so cone, a buffer the caller
// reuses across cuts, is scanned linearly instead of hashed.
func (a *AIG) cutTT(root int, c *cut, cone *[]coneVal) (uint16, bool) {
	*cone = (*cone)[:0]
	for i, l := range c.leaves[:c.n] {
		*cone = append(*cone, coneVal{l, cutPatterns[i]})
	}
	if c.leaves[0] != 0 { // sorted leaves: the constant node can only be first
		*cone = append(*cone, coneVal{0, 0})
	}
	return a.coneTT(root, cone)
}

func (a *AIG) coneTT(n int, vals *[]coneVal) (uint16, bool) {
	for _, e := range *vals {
		if int(e.node) == n {
			return e.tt, true
		}
	}
	if !a.IsAnd(n) {
		return 0, false // reached a PI outside the cut: infeasible
	}
	f0, f1 := a.fanin0[n], a.fanin1[n]
	v0, ok := a.coneTT(f0.Node(), vals)
	if !ok {
		return 0, false
	}
	v1, ok := a.coneTT(f1.Node(), vals)
	if !ok {
		return 0, false
	}
	if f0.Compl() {
		v0 = ^v0
	}
	if f1.Compl() {
		v1 = ^v1
	}
	v := v0 & v1
	*vals = append(*vals, coneVal{int32(n), v})
	return v, true
}

// mark and rollback implement speculative construction: nodes appended
// after mark() can be removed again, restoring the strash table.
func (a *AIG) markNodes() int { return len(a.fanin0) }

func (a *AIG) rollback(m int) {
	for n := len(a.fanin0) - 1; n >= m; n-- {
		f0, f1 := a.fanin0[n], a.fanin1[n]
		delete(a.strash, uint64(f0)<<32|uint64(f1))
	}
	a.fanin0 = a.fanin0[:m]
	a.fanin1 = a.fanin1[:m]
}

// maxCubes bounds the ISOP cover of a 4-input function (parity needs 8).
const maxCubes = 8

// cover is the sum of products a cut function is built from.
type cover struct {
	cubes [maxCubes]tt.Cube
	n     int
	neg   bool // the cubes cover ¬f, so the cut is the complement of their OR
}

// coverMemo maps a cut function, as a 16-bit table over 4 inputs, to its
// cover: the ISOP of f or of ¬f, whichever has fewer literals (f on a tie).
// A k-input function and its 4-input expansion have the same cover, since
// Minato–Morreale skips variables neither bound depends on. Each Rewrite
// or Optimize call owns its memo, which few distinct functions fill.
type coverMemo map[uint16]cover

func (m coverMemo) get(table uint16) cover {
	if c, ok := m[table]; ok {
		return c
	}
	f := tt.New(cutK)
	f.Bits[0] = uint64(table)
	cv, neg := tt.ISOP(f), tt.ISOP(f.Not())
	var c cover
	if neg.NumLits() < cv.NumLits() {
		cv, c.neg = neg, true
	}
	if len(cv) > maxCubes {
		panic("aig: 4-input ISOP cover exceeds maxCubes")
	}
	c.n = copy(c.cubes[:], cv)
	m[table] = c
	return c
}

// buildCut constructs the cut function given by its 16-bit table over the
// (already mapped) leaf edges from the function's memoized cover.
func (a *AIG) buildCut(covers coverMemo, table uint16, leaves []Lit) Lit {
	switch table {
	case 0:
		return Const0
	case 0xFFFF:
		return Const1
	}
	c := covers.get(table)
	var terms [maxCubes]Lit
	for i, cube := range c.cubes[:c.n] {
		var lits [cutK]Lit
		k := 0
		for v, leaf := range leaves {
			if present, pos := cube.Has(v); present {
				lits[k] = leaf.NotIf(!pos)
				k++
			}
		}
		terms[i] = a.AndN(lits[:k])
	}
	return a.OrN(terms[:c.n]).NotIf(c.neg)
}

// Rewrite performs DAG-aware cut rewriting: each AND node is re-expressed
// through the cheapest of its 4-feasible cuts, where cost is the number of
// fresh AND nodes added to the rebuilt graph (sharing with already-built
// structure is free). Function is preserved exactly.
func (a *AIG) Rewrite() *AIG { return a.rewrite(coverMemo{}) }

func (a *AIG) rewrite(covers coverMemo) *AIG {
	src := a.Cleanup()
	cuts := src.enumerateCuts()
	b := New(src.nPI)
	b.InputNames = src.InputNames
	b.OutputNames = src.OutputNames
	mapped := make([]Lit, src.NumNodes())
	mapped[0] = Const0
	for i := 1; i <= src.nPI; i++ {
		mapped[i] = MkLit(i, false)
	}
	mapEdge := func(l Lit) Lit { return mapped[l.Node()].NotIf(l.Compl()) }

	type candidate struct {
		table  uint16
		k      int
		leaves [cutK]Lit
	}
	var cands []candidate
	var cone []coneVal
	for n := src.nPI + 1; n < src.NumNodes(); n++ {
		cands = cands[:0]
		for i := range cuts[n] {
			c := &cuts[n][i]
			if c.n < 2 {
				continue
			}
			table, ok := src.cutTT(n, c, &cone)
			if !ok {
				continue
			}
			cand := candidate{table: table, k: c.n}
			for j, l := range c.leaves[:c.n] {
				cand.leaves[j] = mapped[l]
			}
			cands = append(cands, cand)
		}

		// Default realization: direct AND of mapped fanins. Costs are
		// measured speculatively and rolled back; the winner is rebuilt
		// for real afterwards (speculative edges die with the rollback).
		mark := b.markNodes()
		b.And(mapEdge(src.fanin0[n]), mapEdge(src.fanin1[n]))
		bestCost := b.markNodes() - mark
		b.rollback(mark)
		bestIdx := -1
		for i := range cands {
			cand := &cands[i]
			m := b.markNodes()
			b.buildCut(covers, cand.table, cand.leaves[:cand.k])
			cost := b.markNodes() - m
			b.rollback(m)
			if cost < bestCost {
				bestCost, bestIdx = cost, i
			}
		}
		if bestIdx < 0 {
			mapped[n] = b.And(mapEdge(src.fanin0[n]), mapEdge(src.fanin1[n]))
		} else {
			cand := &cands[bestIdx]
			mapped[n] = b.buildCut(covers, cand.table, cand.leaves[:cand.k])
		}
	}
	for _, po := range src.pos {
		b.AddPO(mapEdge(po))
	}
	return b.Cleanup()
}
