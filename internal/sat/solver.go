// Package sat implements a conflict-driven clause-learning (CDCL) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, VSIDS
// branching with phase saving, first-UIP clause learning with recursive
// minimization, Luby restarts, and learned-clause reduction. It plays the
// role Z3 plays in the RCGP paper: the decision engine behind formal
// equivalence checking and the exact RQFP synthesis baseline.
package sat

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Lit is a literal: variable v has positive literal 2v and negative literal
// 2v+1. Variables are dense, starting at 0.
type Lit int32

// MkLit builds a literal from a variable index and a sign (neg=true for ¬v).
func MkLit(v int, neg bool) Lit {
	l := Lit(v * 2)
	if neg {
		l++
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l) >> 1 }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as e.g. "x3" or "!x3".
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("!x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// ErrLimit is returned when the solver exceeds its configured conflict or
// propagation budget without reaching a verdict.
var ErrLimit = errors.New("sat: budget exhausted")

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func fromBool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// clause is stored inline in an arena. ref indexes the arena header.
type clause struct {
	lits     []Lit
	activity float64
	learnt   bool
	lbd      int
}

type watcher struct {
	cref    int // clause index
	blocker Lit // literal whose satisfaction lets us skip the clause
}

type varData struct {
	reason int // clause index or -1 for decision/unassigned
	level  int
}

const noReason = -1

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []clause // problem + learnt clauses
	free    []int    // freed clause slots for reuse

	watches [][]watcher // indexed by literal
	assigns []lbool     // indexed by variable
	vardata []varData
	phase   []bool // saved phase per variable

	activity []float64
	varInc   float64
	heap     []int // binary max-heap of variable indices by activity
	heapPos  []int // position in heap, -1 if absent

	trail    []Lit
	trailLim []int
	qhead    int

	claInc float64

	seen      []bool
	anaStack  []int
	anaToClr  []Lit
	learntBuf []Lit

	numVars       int
	numLearnts    int
	maxLearnts    float64
	conflicts     int64
	propagations  int64
	decisions     int64
	restarts      int64
	aborted       int64
	ConflictLimit int64 // 0 = unlimited

	ctx         context.Context // optional cancellation, see SetContext
	interrupted bool            // set by search when ctx fired mid-run

	ok bool // false once top-level conflict proven

	model []bool
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, claInc: 1, ok: true}
}

// restartBase is the base of the Luby restart sequence, in conflicts.
const restartBase = 100

// NewVar introduces a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.numVars
	s.numVars++
	s.assigns = append(s.assigns, lUndef)
	s.vardata = append(s.vardata, varData{reason: noReason, level: -1})
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	s.seen = append(s.seen, false)
	s.heapPos = append(s.heapPos, -1)
	s.heapInsert(v)
	return v
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return s.numVars }

// NumClauses returns the number of live problem clauses plus learnt clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) - len(s.free) }

// Stats returns conflict/decision/propagation counters.
func (s *Solver) Stats() (conflicts, decisions, propagations, restarts int64) {
	return s.conflicts, s.decisions, s.propagations, s.restarts
}

// Stats bundles the solver's search counters for propagation through
// results (cec verdicts, exact-synthesis reports, CLI output).
type Stats struct {
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	// Aborted counts Solve calls that returned early because the context
	// installed with SetContext was cancelled.
	Aborted int64 `json:"aborted"`
}

// Counters returns the search counters as a Stats value.
func (s *Solver) Counters() Stats {
	return Stats{
		Conflicts:    s.conflicts,
		Decisions:    s.decisions,
		Propagations: s.propagations,
		Restarts:     s.restarts,
		Aborted:      s.aborted,
	}
}

// Add accumulates o into s, for aggregating counters across solver
// instances.
func (s *Stats) Add(o Stats) {
	s.Conflicts += o.Conflicts
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Restarts += o.Restarts
	s.Aborted += o.Aborted
}

// ctxCheckConflicts is how many conflicts may pass between cancellation
// polls. Checking ctx.Err() costs an atomic load plus a mutex in the
// deadline case, so polling every conflict would slow the hot loop; a few
// hundred conflicts resolve in well under a millisecond.
const ctxCheckConflicts = 256

// SetContext installs a cancellation context that the CDCL search polls
// every ctxCheckConflicts conflicts. A cancelled context makes Solve
// return (Unknown, ctx.Err()) and increments the Aborted counter. nil
// (the default) disables the polling entirely.
func (s *Solver) SetContext(ctx context.Context) { s.ctx = ctx }

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

func (s *Solver) level(v int) int { return s.vardata[v].level }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a problem clause. It returns false if the formula became
// trivially unsatisfiable at the top level.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Normalize: sort-free dedup, drop false lits, detect tautology/sat.
	out := s.learntBuf[:0]
	for _, l := range lits {
		if int(l) < 0 || l.Var() >= s.numVars {
			panic(fmt.Sprintf("sat: literal %d out of range", l))
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied
		case lFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], noReason)
		if s.propagate() != noConflict {
			s.ok = false
			return false
		}
		return true
	}
	cl := make([]Lit, len(out))
	copy(cl, out)
	s.attachClause(s.allocClause(cl, false))
	return true
}

const noConflict = -1

func (s *Solver) allocClause(lits []Lit, learnt bool) int {
	var ref int
	if n := len(s.free); n > 0 {
		ref = s.free[n-1]
		s.free = s.free[:n-1]
		s.clauses[ref] = clause{lits: lits, learnt: learnt}
	} else {
		ref = len(s.clauses)
		s.clauses = append(s.clauses, clause{lits: lits, learnt: learnt})
	}
	if learnt {
		s.numLearnts++
	}
	return ref
}

func (s *Solver) attachClause(ref int) {
	c := &s.clauses[ref]
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{ref, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{ref, c.lits[0]})
}

func (s *Solver) detachClause(ref int) {
	c := &s.clauses[ref]
	s.removeWatch(c.lits[0].Not(), ref)
	s.removeWatch(c.lits[1].Not(), ref)
}

func (s *Solver) removeWatch(l Lit, ref int) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].cref == ref {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, reason int) {
	v := l.Var()
	s.assigns[v] = fromBool(!l.Neg())
	s.vardata[v] = varData{reason: reason, level: s.decisionLevel()}
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns conflicting clause ref or
// noConflict.
func (s *Solver) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := &s.clauses[w.cref]
			lits := c.lits
			// Ensure the false literal is lits[1].
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{w.cref, first}
				j++
				continue
			}
			// Look for a new watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{w.cref, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.cref, first}
			j++
			if s.value(first) == lFalse {
				// Conflict: copy remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return w.cref
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		s.watches[p] = ws[:j]
	}
	return noConflict
}

// analyze performs 1UIP conflict analysis; returns the learnt clause (with
// the asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl int) ([]Lit, int) {
	learnt := s.learntBuf[:0]
	learnt = append(learnt, 0) // placeholder for asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		c := &s.clauses[confl]
		if c.learnt {
			s.bumpClause(confl)
		}
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if !s.seen[v] && s.level(v) > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level(v) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Next literal to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.vardata[p.Var()].reason
	}
	learnt[0] = p.Not()

	// Recursive minimization: drop literals implied by the rest.
	s.anaToClr = s.anaToClr[:0]
	for _, l := range learnt {
		s.anaToClr = append(s.anaToClr, l)
		s.seen[l.Var()] = true
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		if s.vardata[learnt[i].Var()].reason == noReason || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]
	for _, l := range s.anaToClr {
		s.seen[l.Var()] = false
	}

	// Backtrack level = max level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level(learnt[i].Var()) > s.level(learnt[maxI].Var()) {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level(learnt[1].Var())
	}
	s.learntBuf = learnt[:0]
	out := make([]Lit, len(learnt))
	copy(out, learnt)
	return out, btLevel
}

// litRedundant checks whether l is implied by the other seen literals.
func (s *Solver) litRedundant(l Lit) bool {
	s.anaStack = s.anaStack[:0]
	s.anaStack = append(s.anaStack, int(l))
	top := len(s.anaToClr)
	for len(s.anaStack) > 0 {
		cur := Lit(s.anaStack[len(s.anaStack)-1])
		s.anaStack = s.anaStack[:len(s.anaStack)-1]
		reason := s.vardata[cur.Var()].reason
		c := &s.clauses[reason]
		for _, q := range c.lits[1:] {
			v := q.Var()
			if s.seen[v] || s.level(v) == 0 {
				continue
			}
			if s.vardata[v].reason == noReason {
				// Cannot remove: restore and fail.
				for _, lc := range s.anaToClr[top:] {
					s.seen[lc.Var()] = false
				}
				s.anaToClr = s.anaToClr[:top]
				return false
			}
			s.seen[v] = true
			s.anaToClr = append(s.anaToClr, q)
			s.anaStack = append(s.anaStack, int(q))
		}
	}
	return true
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.vardata[v] = varData{reason: noReason, level: -1}
		if s.heapPos[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// ---- VSIDS heap ----

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *Solver) decayVar() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(ref int) {
	c := &s.clauses[ref]
	c.activity += s.claInc
	if c.activity > 1e20 {
		for i := range s.clauses {
			s.clauses[i].activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= 0.999 }

func (s *Solver) heapLess(a, b int) bool { return s.activity[a] > s.activity[b] }

func (s *Solver) heapInsert(v int) {
	s.heapPos[v] = len(s.heap)
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[i]] = i
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapPop() int {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heapPos[s.heap[0]] = 0
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return v
}

func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assigns[v] == lUndef {
			return v
		}
	}
	return -1
}

// ---- learnt clause management ----

func (s *Solver) reduceDB() {
	// Collect learnt clause refs with more than two literals.
	type scored struct {
		ref int
		act float64
	}
	var learnts []scored
	for ref := range s.clauses {
		c := &s.clauses[ref]
		if c.learnt && len(c.lits) > 2 && !s.locked(ref) {
			learnts = append(learnts, scored{ref, c.activity})
		}
	}
	// Remove the lowest-activity half.
	if len(learnts) < 2 {
		return
	}
	sort.Slice(learnts, func(i, j int) bool { return learnts[i].act < learnts[j].act })
	for _, sc := range learnts[:len(learnts)/2] {
		s.removeClause(sc.ref)
	}
}

func (s *Solver) locked(ref int) bool {
	c := &s.clauses[ref]
	v := c.lits[0].Var()
	return s.assigns[v] != lUndef && s.vardata[v].reason == ref
}

func (s *Solver) removeClause(ref int) {
	s.detachClause(ref)
	if s.clauses[ref].learnt {
		s.numLearnts--
	}
	s.clauses[ref] = clause{}
	s.free = append(s.free, ref)
}

// ---- search ----

func luby(i int64) int64 {
	// Find the finite subsequence that contains index i, and the size of it.
	var size, seq int64 = 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i = i % size
	}
	return int64(1) << uint(seq)
}

// Solve determines satisfiability under the given assumptions. On Sat, the
// model is available through Value. Returns ErrLimit if ConflictLimit was
// exceeded, or the context error if the context installed with SetContext
// was cancelled mid-search.
func (s *Solver) Solve(assumptions ...Lit) (Status, error) {
	if !s.ok {
		return Unsat, nil
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		s.aborted++
		return Unknown, s.ctx.Err()
	}
	s.interrupted = false
	s.cancelUntil(0)
	s.maxLearnts = float64(s.NumClauses())/3 + 1000

	var restartNum int64
	for {
		base := restartBase * luby(restartNum)
		st := s.search(base, assumptions)
		switch st {
		case Sat:
			s.model = make([]bool, s.numVars)
			for v := 0; v < s.numVars; v++ {
				s.model[v] = s.assigns[v] == lTrue
			}
			s.cancelUntil(0)
			return Sat, nil
		case Unsat:
			s.cancelUntil(0)
			return Unsat, nil
		}
		if s.interrupted {
			s.cancelUntil(0)
			s.aborted++
			return Unknown, s.ctx.Err()
		}
		restartNum++
		s.restarts++
		if s.ConflictLimit > 0 && s.conflicts >= s.ConflictLimit {
			s.cancelUntil(0)
			return Unknown, ErrLimit
		}
	}
}

// search runs CDCL until a verdict, a restart (after nofConflicts), or a
// budget stop. Returns Unknown to request a restart.
func (s *Solver) search(nofConflicts int64, assumptions []Lit) Status {
	var conflictC int64
	for {
		confl := s.propagate()
		if confl != noConflict {
			s.conflicts++
			conflictC++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			if s.ctx != nil && s.conflicts%ctxCheckConflicts == 0 && s.ctx.Err() != nil {
				s.interrupted = true
				return Unknown
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noReason)
			} else {
				ref := s.allocClause(learnt, true)
				s.attachClause(ref)
				s.bumpClause(ref)
				s.uncheckedEnqueue(learnt[0], ref)
			}
			s.decayVar()
			s.decayClause()
			if float64(s.numLearnts) > s.maxLearnts {
				s.reduceDB()
				s.maxLearnts *= 1.1
			}
			continue
		}
		if conflictC >= nofConflicts {
			s.cancelUntil(0)
			return Unknown
		}
		if s.ConflictLimit > 0 && s.conflicts >= s.ConflictLimit {
			return Unknown
		}
		// Assumption handling / new decision.
		var next Lit = -1
		for s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
				continue
			case lFalse:
				// Conflicting assumptions: we do not need the final
				// conflict clause here, just the verdict.
				return Unsat
			default:
				next = p
			}
			break
		}
		if next == -1 {
			v := s.pickBranchVar()
			if v == -1 {
				return Sat
			}
			s.decisions++
			next = MkLit(v, !s.phase[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, noReason)
	}
}

// Value returns the model value of variable v after a Sat verdict.
func (s *Solver) Value(v int) bool { return s.model[v] }

// ValueLit returns the model value of literal l after a Sat verdict.
func (s *Solver) ValueLit(l Lit) bool {
	val := s.model[l.Var()]
	if l.Neg() {
		return !val
	}
	return val
}
