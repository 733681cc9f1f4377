// Package cec implements the functional-equivalence oracle of RCGP
// (§3.2.1): candidate RQFP netlists are first screened by bit-parallel
// circuit simulation against a golden specification; when the stimulus is
// exhaustive the simulation itself is the proof, otherwise a surviving
// candidate is confirmed by SAT-based combinational equivalence checking
// with counterexamples fed back into the stimulus (the combination of
// simulation and formal verification of Vasicek's CGP work that the paper
// adopts).
//
// The search confirms most candidates without the spec miter: an offspring
// of a proved parent is proved against that parent, which it differs from
// only in its mutated cone (Incremental). The spec miter (Prove) supplies
// refutation counterexamples and runs every other proof: the initial
// parent, the post-pass check (Spec.VerifyEquivalent) and the cache's.
package cec

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bits"
	"github.com/reversible-eda/rcgp/internal/cnf"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/sat"
)

// ExhaustiveMaxPIs is the input count up to which the stimulus enumerates
// all assignments, making simulation a complete proof.
const ExhaustiveMaxPIs = 14

// DefaultRandomWords is the random stimulus width (×64 patterns) used above
// the exhaustive limit.
const DefaultRandomWords = 16

// Spec is a golden specification an RQFP netlist is checked against.
// CheckContext may be called from many goroutines at once (each with its
// own SimContext); the stimulus tables are guarded by a reader-writer lock
// that only AddCounterexample takes exclusively.
type Spec struct {
	NumPI, NumPO int
	Exhaustive   bool

	mu       sync.RWMutex // guards stimulus/golden/words/samples/gen
	stimulus []bits.Vec   // one vector per PI
	golden   []bits.Vec   // one vector per PO
	words    int
	samples  int
	// id is a process-unique nonzero spec identity and gen the stimulus
	// revision (bumped by AddCounterexample); together they tag simulation
	// contexts so an unchanged stimulus is not re-copied per evaluation.
	id  uint64
	gen uint64
	// genLive mirrors gen outside the lock so Incremental snapshots can
	// probe staleness with one atomic load instead of taking mu on every
	// evaluation of the search hot loop.
	genLive atomic.Uint64

	// specAIG drives SAT confirmation and counterexample re-simulation in
	// the non-exhaustive regime; nil when exhaustive.
	specAIG *aig.AIG

	statsMu sync.Mutex
	stats   Stats
	trace   *obs.Tracer
	scope   *obs.Scope
}

// Stats aggregates the oracle's activity across Check calls: how often the
// cheap simulation screen refuted a candidate outright, how often a proof
// was by exhaustive simulation vs. an UNSAT miter, and the accumulated
// CDCL solver counters of every SAT confirmation. The Spec updates the
// counters under its own lock so concurrent CheckContext calls stay safe;
// read them through Spec.Stats.
type Stats struct {
	// Checks counts Check calls (the oracle is the CGP evaluation hot
	// path, so this equals the candidate evaluations it served).
	Checks int64 `json:"checks"`
	// SimRefuted counts candidates the simulation screen rejected.
	SimRefuted int64 `json:"sim_refuted"`
	// ExhaustiveProved counts proofs by complete simulation.
	ExhaustiveProved int64 `json:"exhaustive_proved"`
	// SATProved / SATRefuted / SATUnknown classify the SAT confirmations
	// run after a passing random-pattern simulation. SATAborted counts the
	// subset of SATUnknown where the proof was cut short by context
	// cancellation (deadline or interrupt) rather than a conflict budget.
	SATProved  int64 `json:"sat_proved"`
	SATRefuted int64 `json:"sat_refuted"`
	SATUnknown int64 `json:"sat_unknown"`
	SATAborted int64 `json:"sat_aborted"`
	// StructuralProved is the subset of SATProved settled without a
	// solver: offspring whose parent miter the structural hash closed.
	StructuralProved int64 `json:"structural_proved"`
	// Counterexamples counts distinguishing assignments folded back into
	// the stimulus.
	Counterexamples int64 `json:"counterexamples"`
	// SATTime is the wall-clock time spent inside SAT solving.
	SATTime time.Duration `json:"sat_time_ns"`
	// SAT accumulates the solver search counters across all SAT calls.
	SAT sat.Stats `json:"sat"`
}

// Add accumulates o into s, for merging oracle stats across specs.
func (s *Stats) Add(o Stats) {
	s.Checks += o.Checks
	s.SimRefuted += o.SimRefuted
	s.ExhaustiveProved += o.ExhaustiveProved
	s.SATProved += o.SATProved
	s.SATRefuted += o.SATRefuted
	s.SATUnknown += o.SATUnknown
	s.SATAborted += o.SATAborted
	s.StructuralProved += o.StructuralProved
	s.Counterexamples += o.Counterexamples
	s.SATTime += o.SATTime
	s.SAT.Add(o.SAT)
}

// Stats returns the accumulated oracle counters.
func (s *Spec) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// bump applies f to the counters under the stats lock.
func (s *Spec) bump(f func(*Stats)) {
	s.statsMu.Lock()
	f(&s.stats)
	s.statsMu.Unlock()
}

// mergeStats folds a locally accumulated shard into the shared counters —
// one lock per merge instead of one per counter touch. The zero shard is
// skipped without locking.
func (s *Spec) mergeStats(st Stats) {
	if st == (Stats{}) {
		return
	}
	s.statsMu.Lock()
	s.stats.Add(st)
	s.statsMu.Unlock()
}

// AttachTracer routes SAT verdicts and counterexample events to t (nil
// detaches). Per-simulation events are deliberately not emitted: the
// simulation screen runs once per candidate evaluation and must stay
// allocation-free.
func (s *Spec) AttachTracer(t *obs.Tracer) { s.trace = t }

// AttachScope routes the cec.verdict_latency histogram, one sample per SAT
// verdict, to every registry of sc (nil detaches). Like AttachTracer it
// must be called before the first check.
func (s *Spec) AttachScope(sc *obs.Scope) { s.scope = sc }

// Verdict is the outcome of checking one candidate.
type Verdict struct {
	// Match is the simulation success rate in [0,1]: the fraction of
	// output bits agreeing with the golden responses.
	Match float64
	// Proved reports functional equivalence established either by
	// exhaustive simulation or by an UNSAT miter.
	Proved bool
	// Counterexample, when non-nil, is a distinguishing input assignment
	// found by the SAT refutation. CheckContext returns it without touching
	// the stimulus so concurrent evaluations stay deterministic; callers
	// decide when to fold it back via AddCounterexample (Check does so
	// immediately).
	Counterexample []bool
	// Aborted reports that the verdict is inconclusive because the context
	// was cancelled mid-check (the candidate is conservatively unproved).
	Aborted bool
}

// specIDs hands out the process-unique stimulus identities.
var specIDs atomic.Uint64

// NewSpecFromAIG builds the oracle from a specification AIG. For small
// input counts the stimulus is exhaustive; otherwise `randomWords`×64
// random patterns seeded deterministically from seed are used and SAT
// confirms candidates.
func NewSpecFromAIG(a *aig.AIG, randomWords int, seed int64) *Spec {
	s := &Spec{NumPI: a.NumPIs(), NumPO: a.NumPOs(), id: specIDs.Add(1), gen: 1}
	s.genLive.Store(1)
	if s.NumPI <= ExhaustiveMaxPIs {
		s.Exhaustive = true
		s.stimulus = bits.ExhaustiveInputs(s.NumPI)
		s.samples = 1 << uint(s.NumPI)
	} else {
		if randomWords <= 0 {
			randomWords = DefaultRandomWords
		}
		r := rand.New(rand.NewSource(seed))
		s.stimulus = bits.RandomInputs(s.NumPI, randomWords, r)
		s.samples = randomWords * 64
		s.specAIG = a.Cleanup()
	}
	s.words = len(s.stimulus[0])
	s.golden = a.Simulate(s.stimulus)
	if s.Exhaustive {
		for _, g := range s.golden {
			g.MaskTail(s.samples)
		}
	}
	return s
}

// NewSpecFromNetlist freezes the current function of an RQFP netlist as
// the golden specification (used when the initial netlist itself is the
// reference, e.g. for pure optimization runs).
func NewSpecFromNetlist(n *rqfp.Netlist, randomWords int, seed int64) *Spec {
	s := &Spec{NumPI: n.NumPI, NumPO: len(n.POs), id: specIDs.Add(1), gen: 1}
	s.genLive.Store(1)
	if s.NumPI <= ExhaustiveMaxPIs {
		s.Exhaustive = true
		s.stimulus = bits.ExhaustiveInputs(s.NumPI)
		s.samples = 1 << uint(s.NumPI)
	} else {
		if randomWords <= 0 {
			randomWords = DefaultRandomWords
		}
		r := rand.New(rand.NewSource(seed))
		s.stimulus = bits.RandomInputs(s.NumPI, randomWords, r)
		s.samples = randomWords * 64
		s.specAIG = netlistToAIG(n)
	}
	s.words = len(s.stimulus[0])
	s.golden = n.Simulate(s.stimulus)
	if s.Exhaustive {
		for _, g := range s.golden {
			g.MaskTail(s.samples)
		}
	}
	return s
}

// Words returns the stimulus width in 64-bit words.
func (s *Spec) Words() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.words
}

// Check evaluates a candidate netlist, immediately folding any SAT
// counterexample back into the stimulus. sim must be sized for the netlist
// and the spec's word count; pass nil to allocate a fresh context. Check
// keeps the original single-caller semantics; concurrent evaluators use
// CheckContext and apply counterexamples at a point of their choosing.
func (s *Spec) Check(n *rqfp.Netlist, sim *rqfp.SimContext, active []bool) Verdict {
	v := s.CheckContext(context.Background(), n, sim, active)
	if v.Counterexample != nil {
		s.AddCounterexample(v.Counterexample)
	}
	return v
}

// VerifyEquivalent proves the netlist functionally equivalent to the
// specification and returns a descriptive error on mismatch. The flow
// runs it after every stage that changed the netlist: the proof always
// runs to completion (no context), so a pipeline that is winding down
// after cancellation still hands back a verified — never a torn — result.
func (s *Spec) VerifyEquivalent(n *rqfp.Netlist) error {
	if v := s.Check(n, nil, nil); !v.Proved {
		return fmt.Errorf("lost equivalence (match=%.6f)", v.Match)
	}
	return nil
}

// CheckContext evaluates a candidate netlist: bit-parallel simulation
// screen, then either an exhaustive proof or a SAT confirmation that
// honors ctx cancellation. It never mutates the stimulus — a refuting
// assignment is returned in Verdict.Counterexample — so it is safe to call
// from many goroutines, each with its own SimContext.
func (s *Spec) CheckContext(ctx context.Context, n *rqfp.Netlist, sim *rqfp.SimContext, active []bool) Verdict {
	if n.NumPI != s.NumPI || len(n.POs) != s.NumPO {
		return Verdict{}
	}
	if active == nil {
		active = n.ActiveGates()
	}
	var st Stats
	s.mu.RLock()
	if sim == nil || sim.Words() != s.words {
		sim = rqfp.NewSimContext(n.NumPorts(), s.words)
	}
	sim.RunTagged(n, s.stimulus, active, s.id, s.gen)
	// Only the valid samples count; tail is all-ones when the last word is
	// fully populated (always true for random stimulus).
	tail := bits.TailMask(s.samples, s.words)
	wrong := 0
	for i, po := range n.POs {
		wrong += bits.XorPopcountMasked(sim.Port(po), s.golden[i], tail)
	}
	totalBits := s.samples * s.NumPO
	s.mu.RUnlock()
	v := s.finishCheck(ctx, n, wrong, totalBits, &st)
	s.mergeStats(st)
	return v
}

// finishCheck turns a simulation screen's wrong-bit count into a Verdict,
// running the SAT confirmation when the screen passed in the non-exhaustive
// regime. Counters accumulate into st; the caller merges them.
func (s *Spec) finishCheck(ctx context.Context, n *rqfp.Netlist, wrong, totalBits int, st *Stats) Verdict {
	match := 1 - float64(wrong)/float64(totalBits)
	st.Checks++
	if wrong > 0 {
		st.SimRefuted++
		return Verdict{Match: match}
	}
	if s.Exhaustive {
		st.ExhaustiveProved++
		return Verdict{Match: 1, Proved: true}
	}
	// Simulation passed on random patterns: confirm formally.
	eq, cex, aborted := s.satCheck(ctx, n, st)
	if eq {
		return Verdict{Match: 1, Proved: true}
	}
	// match recomputed lazily once the counterexample is applied
	return Verdict{Match: match, Counterexample: cex, Aborted: aborted}
}

// satCheck proves the candidate against the spec AIG. Returns
// (true, nil, false) on proven equivalence, (false, assignment, false)
// with a distinguishing input assignment, or (false, nil, aborted) when the
// solver reached no verdict — aborted marks a context cancellation.
// Counters accumulate into st without locking.
func (s *Spec) satCheck(ctx context.Context, n *rqfp.Netlist, st *Stats) (bool, []bool, bool) {
	start := time.Now()
	eq, cex, solver, err := Prove(ctx, s.specAIG, n)
	return eq, cex, s.recordSAT(ctx, start, eq, solver, err, st)
}

// recordSAT accounts one SAT verdict begun at start, given its outcome
// (eq, err) and the counters of the solves behind it: one
// cec.verdict_latency sample, the verdict and solver counters in st, and
// one cec.sat trace event. It reports whether ctx aborted the verdict.
func (s *Spec) recordSAT(ctx context.Context, start time.Time, eq bool, solver sat.Stats, err error, st *Stats) bool {
	elapsed := time.Since(start)
	if !s.scope.Empty() {
		s.scope.Histogram("cec.verdict_latency").Observe(elapsed)
	}
	aborted := err != nil && ctx.Err() != nil
	st.SATTime += elapsed
	st.SAT.Add(solver)
	verdict := "unknown"
	switch {
	case err != nil:
		st.SATUnknown++
		if aborted {
			verdict = "aborted"
			st.SATAborted++
		}
	case eq:
		verdict = "proved"
		st.SATProved++
	default:
		verdict = "refuted"
		st.SATRefuted++
	}
	if s.trace != nil {
		s.trace.Emit("cec.sat", map[string]any{
			"verdict":   verdict,
			"dur_us":    elapsed.Microseconds(),
			"conflicts": solver.Conflicts,
			"decisions": solver.Decisions,
		})
	}
	return aborted
}

// AddCounterexample widens the stimulus by one word whose bit 0 carries the
// distinguishing assignment (remaining bits random from its hash), and
// recomputes the golden responses. Exported so concurrent search engines
// can defer the widening to their reduction step, keeping the stimulus —
// and therefore every Match value — deterministic per seed regardless of
// goroutine scheduling. No-op on exhaustive specs or mis-sized inputs.
func (s *Spec) AddCounterexample(cex []bool) {
	if s.Exhaustive || len(cex) != s.NumPI {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bump(func(st *Stats) { st.Counterexamples++ })
	if s.trace != nil {
		s.trace.Emit("cec.counterexample", map[string]any{"words": s.words + 1})
	}
	seed := int64(0)
	for i, v := range cex {
		if v {
			seed |= 1 << uint(i%63)
		}
	}
	r := rand.New(rand.NewSource(seed ^ int64(s.words)))
	for i := range s.stimulus {
		w := r.Uint64()
		if cex[i] {
			w |= 1
		} else {
			w &^= 1
		}
		s.stimulus[i] = append(s.stimulus[i], w)
	}
	s.words++
	s.samples += 64
	s.gen++ // invalidate resident stimulus tags and incremental parents
	s.genLive.Store(s.gen)
	s.golden = s.specAIG.Simulate(s.stimulus)
}

// EncodeNetlist Tseitin-encodes the active part of an RQFP netlist over
// the given PI literals and returns the PO literals.
func EncodeNetlist(b *cnf.Builder, n *rqfp.Netlist, pis []sat.Lit) []sat.Lit {
	if len(pis) != n.NumPI {
		panic(fmt.Sprintf("cec: got %d PI literals for %d inputs", len(pis), n.NumPI))
	}
	active := n.ActiveGates()
	port := make([]sat.Lit, n.NumPorts())
	port[rqfp.ConstPort] = b.ConstTrue
	for i := 0; i < n.NumPI; i++ {
		port[n.PIPort(i)] = pis[i]
	}
	for g := range n.Gates {
		if !active[g] {
			continue
		}
		gate := &n.Gates[g]
		for m := 0; m < 3; m++ {
			var ins [3]sat.Lit
			for j := 0; j < 3; j++ {
				l := port[gate.In[j]]
				if gate.Cfg.Inv(m, j) {
					l = l.Not()
				}
				ins[j] = l
			}
			port[n.Port(g, m)] = b.Maj(ins[0], ins[1], ins[2])
		}
	}
	outs := make([]sat.Lit, len(n.POs))
	for i, po := range n.POs {
		outs[i] = port[po]
	}
	return outs
}

// Prove decides by CDCL on a Tseitin miter whether the active part of n
// computes the same function as spec, honoring ctx cancellation. A
// refutation comes with a distinguishing PI assignment in cex. A non-nil
// error — the context's, or sat.ErrLimit — means no verdict was reached.
// The solver's search counters are returned either way. n must have
// spec's input count.
func Prove(ctx context.Context, spec *aig.AIG, n *rqfp.Netlist) (eq bool, cex []bool, st sat.Stats, err error) {
	b := cnf.NewBuilder()
	b.S.SetContext(ctx)
	pis := make([]sat.Lit, spec.NumPIs())
	for i := range pis {
		pis[i] = b.Lit()
	}
	candOut := EncodeNetlist(b, n, pis)
	specPIs, specOut := spec.ToCNF(b)
	for i := range pis {
		b.Equal(pis[i], specPIs[i])
	}
	b.AddClause(b.MiterOutputs(candOut, specOut))
	status, err := b.S.Solve()
	st = b.S.Counters()
	if err != nil {
		return false, nil, st, err
	}
	if status == sat.Unsat {
		return true, nil, st, nil
	}
	cex = make([]bool, len(pis))
	for i, l := range pis {
		cex[i] = b.S.ValueLit(l)
	}
	return false, cex, st, nil
}

// NetlistsEquivalent decides full equivalence of two RQFP netlists,
// regardless of input count. Used by tests and the exact-synthesis harness.
func NetlistsEquivalent(x, y *rqfp.Netlist) (bool, error) {
	eq, _, err := NetlistsEquivalentStats(x, y)
	return eq, err
}

// NetlistsEquivalentStats is NetlistsEquivalent plus the SAT solver's
// search counters for the miter, so callers (e.g. rqfp-stat) can report
// how hard the proof was. x is extracted to an AIG specification and y is
// proved against it by Prove — the check the search oracle runs. A shape
// mismatch is an immediate refutation.
func NetlistsEquivalentStats(x, y *rqfp.Netlist) (bool, sat.Stats, error) {
	if x.NumPI != y.NumPI || len(x.POs) != len(y.POs) {
		return false, sat.Stats{}, nil
	}
	eq, _, st, err := Prove(context.Background(), netlistToAIG(x), y)
	return eq, st, err
}

func netlistToAIG(n *rqfp.Netlist) *aig.AIG {
	a := aig.New(n.NumPI)
	port := make([]aig.Lit, n.NumPorts())
	port[rqfp.ConstPort] = aig.Const1
	for i := 0; i < n.NumPI; i++ {
		port[n.PIPort(i)] = a.PI(i)
	}
	active := n.ActiveGates()
	for g := range n.Gates {
		if !active[g] {
			continue
		}
		gate := &n.Gates[g]
		for m := 0; m < 3; m++ {
			var ins [3]aig.Lit
			for j := 0; j < 3; j++ {
				l := port[gate.In[j]]
				if gate.Cfg.Inv(m, j) {
					l = l.Not()
				}
				ins[j] = l
			}
			port[n.Port(g, m)] = a.Maj(ins[0], ins[1], ins[2])
		}
	}
	for _, po := range n.POs {
		a.AddPO(port[po])
	}
	return a
}
