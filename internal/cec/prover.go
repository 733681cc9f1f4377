// The pluggable prover layer: every slow-path equivalence verdict in the
// system — Spec/View/Incremental SAT confirmations, cache re-verification,
// netlist-vs-netlist checks — flows through a Portfolio of Prover engines
// racing on the same query. The design follows sat_revsynth's solver-racer
// pattern: first definitive verdict cancels the rest, while a fixed
// authority keeps results bit-deterministic (see Portfolio.Prove).

package cec

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bdd"
	"github.com/reversible-eda/rcgp/internal/cnf"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/sat"
)

// Outcome classifies one prover's answer to a single equivalence query.
type Outcome int8

// Prover outcomes.
const (
	// OutcomeUnknown means the engine gave up: cancelled, out of budget, or
	// out of its domain. Never definitive.
	OutcomeUnknown Outcome = iota
	// OutcomeEquivalent is a completed proof of functional equivalence.
	OutcomeEquivalent
	// OutcomeNotEquivalent is a completed refutation.
	OutcomeNotEquivalent
)

func (o Outcome) String() string {
	switch o {
	case OutcomeEquivalent:
		return "equivalent"
	case OutcomeNotEquivalent:
		return "not_equivalent"
	}
	return "unknown"
}

// ProveResult is one prover's (or the portfolio's adjudicated) answer.
type ProveResult struct {
	Outcome Outcome
	// Counterexample is a distinguishing PI assignment; non-nil only for
	// OutcomeNotEquivalent from a model-producing engine.
	Counterexample []bool
	// SAT carries the CDCL search counters of SAT-backed engines (zero for
	// the BDD prover). On a portfolio verdict these are always the
	// authority instance's counters.
	SAT sat.Stats
	// Err explains OutcomeUnknown: a context error, sat.ErrLimit, or
	// bdd.ErrBudget.
	Err error
}

// Prover decides functional equivalence of a candidate RQFP netlist
// against the fixed specification it was constructed for. Implementations
// must be safe for concurrent Prove calls and must honor ctx: on
// cancellation they return OutcomeUnknown promptly (the BDD prover is
// exempt mid-build — its node budget bounds the overrun).
type Prover interface {
	Name() string
	Prove(ctx context.Context, n *rqfp.Netlist) ProveResult
}

// satProver proves by CDCL on a Tseitin miter of the candidate against the
// spec AIG — the legacy satCheck body behind the Prover interface.
type satProver struct {
	spec *aig.AIG
}

func (p *satProver) Name() string { return AuthorityEngine }

func (p *satProver) Prove(ctx context.Context, n *rqfp.Netlist) ProveResult {
	b := cnf.NewBuilder()
	b.S.SetContext(ctx)
	pis := make([]sat.Lit, p.spec.NumPIs())
	for i := range pis {
		pis[i] = b.Lit()
	}
	candOut := EncodeNetlist(b, n, pis)
	specPIs, specOut := p.spec.ToCNF(b)
	for i := range pis {
		b.Equal(pis[i], specPIs[i])
	}
	b.AddClause(b.MiterOutputs(candOut, specOut))
	status, err := b.S.Solve()
	res := ProveResult{SAT: b.S.Counters(), Err: err}
	switch {
	case err == nil && status == sat.Unsat:
		res.Outcome = OutcomeEquivalent
	case err == nil && status == sat.Sat:
		res.Outcome = OutcomeNotEquivalent
		cex := make([]bool, len(pis))
		for i, l := range pis {
			cex[i] = b.S.ValueLit(l)
		}
		res.Counterexample = cex
	}
	return res
}

// DefaultBDDBudget is the BDD prover's node budget when the configuration
// leaves it zero: large enough to finish typical ≤20-input miters, small
// enough that a blowup resolves to unknown in milliseconds.
const DefaultBDDBudget = 1 << 18

// bddProver proves by canonical ROBDD comparison under a node budget. It
// answers instantly on functions with compact diagrams (where CDCL may
// grind through a deep UNSAT proof) and returns unknown on blowup. It
// never produces a counterexample — under the deterministic-cex rule only
// the authority's model is ever adopted anyway.
type bddProver struct {
	spec   *aig.AIG
	budget int
}

func (p *bddProver) Name() string { return AuxEngine }

func (p *bddProver) Prove(ctx context.Context, n *rqfp.Netlist) ProveResult {
	if err := ctx.Err(); err != nil {
		return ProveResult{Err: err}
	}
	eq, err := bdd.EquivalentAIGNetlistBudget(p.spec, n, p.budget)
	if err != nil {
		return ProveResult{Err: err}
	}
	if eq {
		return ProveResult{Outcome: OutcomeEquivalent}
	}
	return ProveResult{Outcome: OutcomeNotEquivalent}
}

// AuthorityEngine is the name of the CDCL instance every portfolio runs.
// It is the fixed head of the priority order and the sole source of
// adopted counterexamples.
const AuthorityEngine = "sat"

// AuxEngine is the name of the one racing engine beside the authority:
// the budgeted BDD comparator.
const AuxEngine = "bdd"

// PortfolioConfig selects the racing roster for a Portfolio.
type PortfolioConfig struct {
	// Provers is the total number of engines raced per query. 0 or 1 runs
	// only the authority CDCL instance — the legacy single-prover path
	// with no extra goroutines. 2 or more races the authority against the
	// BDD prover; larger values are clamped to 2.
	Provers int
	// BDDBudget bounds the BDD prover's node count (0 = DefaultBDDBudget).
	BDDBudget int
	// Scope, when non-empty, receives per-engine latency histograms
	// (cec.engine_<name>_latency) and the per-query verdict histogram
	// (cec.verdict_latency).
	Scope *obs.Scope
}

// EngineNames returns the roster this configuration selects, authority
// first — which is also the deterministic priority order. Useful for
// pre-registering metrics before any query runs.
func (cfg PortfolioConfig) EngineNames() []string {
	if cfg.Provers >= 2 {
		return []string{AuthorityEngine, AuxEngine}
	}
	return []string{AuthorityEngine}
}

// EngineStat is one engine's cumulative record across a portfolio's
// queries.
type EngineStat struct {
	Name string `json:"name"`
	// Wins counts queries whose adopted verdict this engine supplied.
	Wins int64 `json:"wins"`
	// Proved/Refuted/Unknown classify the engine's own answers, adopted or
	// not (a cancelled engine records Unknown).
	Proved  int64 `json:"proved"`
	Refuted int64 `json:"refuted"`
	Unknown int64 `json:"unknown"`
	// Time is the wall clock spent inside the engine's Prove calls.
	Time time.Duration `json:"time_ns"`
}

type engineCounters struct {
	wins, proved, refuted, unknown atomic.Int64
	timeNS                         atomic.Int64
}

// Portfolio races the authority CDCL instance, optionally against the
// budgeted BDD prover, per equivalence query.
//
// Determinism contract: the adopted verdict and counterexample are always
// the authority engine's whenever it completes, regardless of which racer
// finished first. The BDD prover may only supply an *equivalence* verdict
// when the authority was cancelled out from under the query — sound
// engines agree on verdicts, and a proof carries no model to adopt. Per-seed
// search trajectories therefore stay bit-identical under AddCounterexample
// widening for either roster.
type Portfolio struct {
	authority Prover
	aux       Prover   // nil when the authority runs alone
	names     []string // authority first, then aux
	counters  map[string]*engineCounters
	scope     *obs.Scope
}

// NewPortfolio builds a portfolio proving candidates against the given
// specification AIG.
func NewPortfolio(spec *aig.AIG, cfg PortfolioConfig) *Portfolio {
	budget := cfg.BDDBudget
	if budget <= 0 {
		budget = DefaultBDDBudget
	}
	pf := &Portfolio{
		authority: &satProver{spec: spec},
		names:     cfg.EngineNames(),
		counters:  map[string]*engineCounters{},
		scope:     cfg.Scope,
	}
	if len(pf.names) > 1 {
		pf.aux = &bddProver{spec: spec, budget: budget}
	}
	for _, name := range pf.names {
		pf.counters[name] = &engineCounters{}
	}
	return pf
}

// NumProvers returns the roster size (authority included).
func (pf *Portfolio) NumProvers() int { return len(pf.names) }

// Engines returns the cumulative per-engine records in priority order.
func (pf *Portfolio) Engines() []EngineStat {
	out := make([]EngineStat, 0, len(pf.names))
	for _, name := range pf.names {
		c := pf.counters[name]
		out = append(out, EngineStat{
			Name:    name,
			Wins:    c.wins.Load(),
			Proved:  c.proved.Load(),
			Refuted: c.refuted.Load(),
			Unknown: c.unknown.Load(),
			Time:    time.Duration(c.timeNS.Load()),
		})
	}
	return out
}

// record accumulates one engine's answer to one query.
func (pf *Portfolio) record(name string, res ProveResult, d time.Duration, won bool) {
	c := pf.counters[name]
	switch res.Outcome {
	case OutcomeEquivalent:
		c.proved.Add(1)
	case OutcomeNotEquivalent:
		c.refuted.Add(1)
	default:
		c.unknown.Add(1)
	}
	if won {
		c.wins.Add(1)
	}
	c.timeNS.Add(int64(d))
	if !pf.scope.Empty() {
		pf.scope.Histogram("cec.engine_" + name + "_latency").Observe(d)
	}
}

// Prove races the roster over one candidate and returns the adjudicated
// result. Safe for concurrent use.
func (pf *Portfolio) Prove(ctx context.Context, n *rqfp.Netlist) ProveResult {
	start := time.Now()
	res := pf.prove(ctx, n)
	if !pf.scope.Empty() {
		pf.scope.Histogram("cec.verdict_latency").Observe(time.Since(start))
	}
	return res
}

func (pf *Portfolio) prove(ctx context.Context, n *rqfp.Netlist) ProveResult {
	if pf.aux == nil {
		start := time.Now()
		res := pf.authority.Prove(ctx, n)
		pf.record(AuthorityEngine, res, time.Since(start), res.Outcome != OutcomeUnknown)
		return res
	}

	// An auxiliary equivalence proof stops the authority (any sound
	// engine's proof settles the verdict); an auxiliary refutation does
	// not — the authority must run to its own model so the adopted
	// counterexample never depends on racing order.
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var auxRes ProveResult
	var auxTime time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		t0 := time.Now()
		auxRes = pf.aux.Prove(raceCtx, n)
		auxTime = time.Since(t0)
		if auxRes.Outcome == OutcomeEquivalent {
			cancel()
		}
	}()
	t0 := time.Now()
	authRes := pf.authority.Prove(raceCtx, n)
	authTime := time.Since(t0)
	cancel()
	<-done

	final := authRes
	winner := AuthorityEngine
	if authRes.Outcome == OutcomeUnknown {
		if auxRes.Outcome == OutcomeEquivalent {
			// The authority was cancelled by the auxiliary proof. Adopt it;
			// keep the authority's partial CDCL counters for the effort
			// accounting.
			winner = pf.aux.Name()
			final = ProveResult{Outcome: OutcomeEquivalent, SAT: authRes.SAT}
		} else {
			winner = ""
		}
	}
	pf.record(AuthorityEngine, authRes, authTime, winner == AuthorityEngine)
	pf.record(pf.aux.Name(), auxRes, auxTime, pf.aux.Name() == winner)
	return final
}
