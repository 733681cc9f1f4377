// Package cnf provides Tseitin-style CNF construction on top of the CDCL
// solver: fresh variables per network node, gate encodings for the
// primitives used by AIG/MIG/RQFP netlists, and miter assembly for
// combinational equivalence checking.
package cnf

import "github.com/reversible-eda/rcgp/internal/sat"

// Builder accumulates clauses into a sat.Solver.
type Builder struct {
	S *sat.Solver
	// ConstTrue is a literal fixed to true, available for encoding
	// constant fanins.
	ConstTrue sat.Lit
}

// NewBuilder wraps a fresh solver and allocates the constant-true literal.
func NewBuilder() *Builder {
	s := sat.New()
	ct := sat.MkLit(s.NewVar(), false)
	s.AddClause(ct)
	return &Builder{S: s, ConstTrue: ct}
}

// Lit allocates a fresh variable and returns its positive literal.
func (b *Builder) Lit() sat.Lit { return sat.MkLit(b.S.NewVar(), false) }

// ConstFalse returns a literal fixed to false.
func (b *Builder) ConstFalse() sat.Lit { return b.ConstTrue.Not() }

// AddClause forwards to the solver.
func (b *Builder) AddClause(lits ...sat.Lit) bool { return b.S.AddClause(lits...) }

// And encodes o ↔ (x ∧ y) and returns o.
func (b *Builder) And(x, y sat.Lit) sat.Lit {
	o := b.Lit()
	b.S.AddClause(x.Not(), y.Not(), o)
	b.S.AddClause(x, o.Not())
	b.S.AddClause(y, o.Not())
	return o
}

// Or encodes o ↔ (x ∨ y) and returns o.
func (b *Builder) Or(x, y sat.Lit) sat.Lit {
	return b.And(x.Not(), y.Not()).Not()
}

// Xor encodes o ↔ (x ⊕ y) and returns o.
func (b *Builder) Xor(x, y sat.Lit) sat.Lit {
	o := b.Lit()
	b.S.AddClause(x.Not(), y.Not(), o.Not())
	b.S.AddClause(x, y, o.Not())
	b.S.AddClause(x.Not(), y, o)
	b.S.AddClause(x, y.Not(), o)
	return o
}

// Maj encodes o ↔ MAJ(x,y,z) for a fresh o and returns o.
func (b *Builder) Maj(x, y, z sat.Lit) sat.Lit {
	o := b.Lit()
	b.DefineMaj(o, x, y, z)
	return o
}

// DefineMaj adds the six clauses of o ↔ MAJ(x,y,z) for an allocated o.
func (b *Builder) DefineMaj(o, x, y, z sat.Lit) {
	// Any two true fanins force o; any two false fanins force ¬o.
	b.S.AddClause(x.Not(), y.Not(), o)
	b.S.AddClause(x.Not(), z.Not(), o)
	b.S.AddClause(y.Not(), z.Not(), o)
	b.S.AddClause(x, y, o.Not())
	b.S.AddClause(x, z, o.Not())
	b.S.AddClause(y, z, o.Not())
}

// Mux encodes o ↔ (s ? x : y) and returns o.
func (b *Builder) Mux(s, x, y sat.Lit) sat.Lit {
	o := b.Lit()
	b.S.AddClause(s.Not(), x.Not(), o)
	b.S.AddClause(s.Not(), x, o.Not())
	b.S.AddClause(s, y.Not(), o)
	b.S.AddClause(s, y, o.Not())
	return o
}

// Equal asserts x ↔ y.
func (b *Builder) Equal(x, y sat.Lit) {
	b.S.AddClause(x.Not(), y)
	b.S.AddClause(x, y.Not())
}

// Implies asserts x → y.
func (b *Builder) Implies(x, y sat.Lit) { b.S.AddClause(x.Not(), y) }

// AtMostOne asserts that at most one of the literals is true, using the
// pairwise encoding (fine for the small selector sets in exact synthesis).
func (b *Builder) AtMostOne(lits []sat.Lit) {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			b.S.AddClause(lits[i].Not(), lits[j].Not())
		}
	}
}

// ExactlyOne asserts precisely one literal true.
func (b *Builder) ExactlyOne(lits []sat.Lit) {
	b.S.AddClause(lits...)
	b.AtMostOne(lits)
}

// AtMostK asserts Σ lits ≤ k using the sequential-counter encoding of
// Sinz (2005). k ≥ 0; k ≥ len(lits) adds nothing.
func (b *Builder) AtMostK(lits []sat.Lit, k int) {
	n := len(lits)
	if k >= n {
		return
	}
	if k == 0 {
		for _, l := range lits {
			b.S.AddClause(l.Not())
		}
		return
	}
	// s[i][j]: among the first i+1 literals, at least j+1 are true.
	s := make([][]sat.Lit, n)
	for i := range s {
		s[i] = make([]sat.Lit, k)
		for j := range s[i] {
			s[i][j] = b.Lit()
		}
	}
	b.Implies(lits[0], s[0][0])
	for j := 1; j < k; j++ {
		b.S.AddClause(s[0][j].Not())
	}
	for i := 1; i < n; i++ {
		b.Implies(lits[i], s[i][0])
		b.Implies(s[i-1][0], s[i][0])
		for j := 1; j < k; j++ {
			b.S.AddClause(lits[i].Not(), s[i-1][j-1].Not(), s[i][j])
			b.Implies(s[i-1][j], s[i][j])
		}
		b.S.AddClause(lits[i].Not(), s[i-1][k-1].Not())
	}
}

// MiterOutputs builds the disequality miter over output pairs: the returned
// literal is true iff some pair differs. Asserting it and solving checks
// equivalence (UNSAT ⇒ equivalent).
func (b *Builder) MiterOutputs(a, bLits []sat.Lit) sat.Lit {
	if len(a) != len(bLits) {
		panic("cnf: miter output arity mismatch")
	}
	diffs := make([]sat.Lit, len(a))
	for i := range a {
		diffs[i] = b.Xor(a[i], bLits[i])
	}
	// out ↔ OR(diffs)
	out := b.Lit()
	cl := make([]sat.Lit, 0, len(diffs)+1)
	for _, d := range diffs {
		b.S.AddClause(d.Not(), out)
		cl = append(cl, d)
	}
	cl = append(cl, out.Not())
	b.S.AddClause(cl...)
	return out
}
