// Package flow runs the full RCGP pipeline of Fig. 2: specification →
// classical AIG optimization ("resyn2" stage) → majority resynthesis
// ("aqfp_resynthesis" stage) → RQFP netlist conversion with splitter
// insertion → CGP-based optimization → RQFP buffer insertion, with the
// heuristic initialization baseline reported alongside.
//
// Since the pass-manager refactor the pipeline itself lives in
// internal/pass: every stage is a registered pass over a shared pipeline
// State, and Run/RunContext merely render Options into the default pass
// script (or parse Options.Script) and hand it to the pass.Manager, which
// owns timing, tracing, cancellation, skip bookkeeping, and the
// equivalence verification after every netlist-mutating pass.
package flow

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/pass"
	"github.com/reversible-eda/rcgp/internal/resub"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/template"
	"github.com/reversible-eda/rcgp/internal/tt"
	"github.com/reversible-eda/rcgp/internal/window"
)

// Options configures one pipeline run.
type Options struct {
	// SynthEffort is the classical AIG optimization effort.
	SynthEffort aig.Effort
	// CGP configures the evolutionary optimization; CGP.Generations = 0
	// picks the core default.
	CGP core.Options
	// SkipCGP stops after initialization (the paper's first baseline).
	SkipCGP bool
	// RandomWords sizes the random stimulus for wide circuits.
	RandomWords int
	// WindowRounds, when positive, runs windowed CGP resynthesis after
	// the global evolution — the scalability technique for circuits too
	// large to evolve whole.
	WindowRounds int
	// Resub, when set, finishes with deterministic simulation-driven
	// resubstitution. The pass needs an exhaustive oracle (circuits ≤ 14
	// inputs); on wider circuits it is recorded as skipped with a reason
	// in Result.Skipped.
	Resub bool
	// Optimizer selects the search engine: "cgp" (default — the paper's
	// (1+λ) evolutionary strategy), "anneal" (simulated annealing over the
	// same chromosome/mutations), or "hybrid" (half the budget each,
	// annealing seeded with the CGP result).
	Optimizer string
	// Templates, when non-nil, enables the search-free identity-template
	// rewriting pass: the default script runs it after the search stage,
	// and scripts may invoke it explicitly as "template". Runtime-learned
	// windows are fed back into the library unless the pass's learn=false
	// option says otherwise.
	Templates *template.Library
	// Script, when non-empty, replaces the default pipeline with an
	// explicit pass script, e.g. "aig.resyn2;convert;cgp(gens=500);buffer"
	// (see internal/pass). SkipCGP, WindowRounds, Resub, and Optimizer are
	// ignored when Script is set; CGP still supplies the baseline search
	// options that script passes may override.
	Script string
	// Trace, when non-nil, receives the run's JSONL telemetry: pipeline
	// span begin/end events, CGP generation checkpoints and improvement
	// events, and CEC SAT verdicts.
	Trace *obs.Tracer
	// Obs, when non-nil, is the metric registry the run records into;
	// nil allocates a fresh per-run registry (snapshot on Result.Obs).
	Obs *obs.Registry
}

// Result carries everything the evaluation tables need.
type Result struct {
	// Spec is the golden oracle derived from the input.
	Spec *cec.Spec
	// AIGAnds / MIGMajs record the intermediate network sizes.
	AIGAnds, MIGMajs int

	// Initial is the netlist after conversion and splitter insertion; its
	// stats (after buffer insertion) are the paper's "Initialization"
	// baseline columns.
	Initial      *rqfp.Netlist
	InitialStats rqfp.Stats

	// Final is the CGP-optimized netlist (equal to Initial when SkipCGP);
	// its stats are the paper's "RCGP" columns.
	Final      *rqfp.Netlist
	FinalStats rqfp.Stats

	// CGP is the accumulated search report (nil when no search pass ran).
	CGP *core.Result
	// Window is the windowed-resynthesis report (nil unless requested).
	Window *window.Report
	// Resub is the resubstitution report (nil unless the pass ran).
	Resub *resub.Stats
	// Template is the template-rewrite report (nil unless the pass ran).
	Template *template.Report

	// StageTimes is the wall-clock breakdown per executed pipeline pass,
	// in execution order. Skipped records scheduled passes that did not
	// run — the resubstitution pass on a too-wide circuit, or passes
	// behind a cancellation — each with the reason in StageTime.Skipped.
	StageTimes []obs.StageTime
	Skipped    []obs.StageTime
	// CEC aggregates the main oracle's counters: sim-refuted vs.
	// SAT-proved checks and the accumulated solver statistics. Window
	// rounds use their own local oracles, which are not included.
	CEC cec.Stats
	// Obs is the final snapshot of the run's metric registry.
	Obs obs.Snapshot

	// Runtime covers the whole pipeline.
	Runtime time.Duration
}

// Run synthesizes an RQFP circuit from a specification AIG.
func Run(spec *aig.AIG, opt Options) (*Result, error) {
	return RunContext(context.Background(), spec, opt)
}

// DefaultScript renders Options into the invocation list of the paper's
// Fig. 2 pipeline: aig.resyn2 → mig.resyn → convert → one search pass
// (unless SkipCGP) → window (when WindowRounds > 0) → resub (when Resub)
// → buffer. It is the exact pipeline the pre-pass-manager monolith
// hardcoded, so the default flow stays bit-identical per seed.
func DefaultScript(opt Options) ([]pass.Invocation, error) {
	invs := []pass.Invocation{
		{Name: "aig.resyn2"},
		{Name: "mig.resyn"},
		{Name: "convert"},
	}
	if !opt.SkipCGP {
		engine := opt.Optimizer
		if engine == "" {
			engine = "cgp"
		}
		switch engine {
		case "cgp", "anneal", "hybrid":
		default:
			return nil, fmt.Errorf("unknown optimizer %q (cgp|anneal|hybrid)", opt.Optimizer)
		}
		invs = append(invs, pass.Invocation{Name: engine})
	}
	if opt.WindowRounds > 0 {
		invs = append(invs, pass.Invocation{
			Name: "window",
			Args: pass.Args{"rounds": strconv.Itoa(opt.WindowRounds)},
		})
	}
	if opt.Resub {
		invs = append(invs, pass.Invocation{Name: "resub"})
	}
	if opt.Templates != nil {
		invs = append(invs, pass.Invocation{Name: "template"})
	}
	invs = append(invs, pass.Invocation{Name: "buffer"})
	return invs, nil
}

// scriptInvocations resolves the run's pipeline: an explicit Script wins,
// otherwise the default script rendered from the remaining Options.
func scriptInvocations(opt Options) ([]pass.Invocation, error) {
	if opt.Script != "" {
		return pass.ParseScript(opt.Script)
	}
	return DefaultScript(opt)
}

// RunContext is Run under an external cancellation context, threaded
// through every pass down to the SAT solver: cancelling ctx lets the
// current pass wind down (the search passes return their validated
// best-so-far), records the remaining passes as skipped, and returns the
// verified result; cancelling before the netlist exists returns the
// context error.
func RunContext(ctx context.Context, spec *aig.AIG, opt Options) (*Result, error) {
	start := time.Now()

	reg := opt.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if opt.Trace != nil {
		reg.AttachTracer(opt.Trace)
	}

	invs, err := scriptInvocations(opt)
	if err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	mgr, err := pass.NewManager(invs)
	if err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}

	// The write scope spans the run registry plus whatever the context
	// carries — the service layer threads a per-job + process-global scope
	// through ctx, so one instrumented code path feeds /jobs/{id},
	// /metrics, and Result.Obs at once.
	scope := obs.ScopeFrom(ctx).With(reg)

	cgpOpt := opt.CGP
	cgpOpt.Metrics = scope
	if cgpOpt.Trace == nil {
		cgpOpt.Trace = opt.Trace
	}
	st := &pass.State{
		Spec:        spec,
		SynthEffort: opt.SynthEffort,
		CGP:         cgpOpt,
		RandomWords: opt.RandomWords,
		Templates:   opt.Templates,
		Reg:         reg,
		Scope:       scope,
		Tracer:      opt.Trace,
	}
	if err := mgr.Run(ctx, st); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	if st.Net == nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("flow: canceled before initialization: %w", cerr)
		}
		return nil, fmt.Errorf("flow: pipeline built no netlist (missing a convert pass?)")
	}

	res := &Result{
		Spec:         st.Oracle,
		AIGAnds:      st.AIGAnds,
		MIGMajs:      st.MIGMajs,
		Initial:      st.Initial,
		InitialStats: st.InitialStats,
		Final:        st.Net,
		CGP:          st.Search,
		Window:       st.Window,
		Resub:        st.Resub,
		Template:     st.Template,
		StageTimes:   st.StageTimes,
		Skipped:      st.Skipped,
	}
	if res.Final == res.Initial {
		res.FinalStats = res.InitialStats
	} else {
		res.FinalStats = res.Final.ComputeStats()
	}
	if st.Oracle != nil {
		res.CEC = st.Oracle.Stats()
	}
	recordRunMetrics(scope, res)
	res.Obs = reg.Snapshot()
	res.Runtime = time.Since(start)
	if opt.Trace != nil {
		opt.Trace.Emit("flow.done", map[string]any{
			"gates": res.FinalStats.Gates, "garbage": res.FinalStats.Garbage,
			"buffers": res.FinalStats.Buffers, "jjs": res.FinalStats.JJs,
			"runtime_us": res.Runtime.Microseconds(),
		})
	}
	return res, nil
}

// recordRunMetrics folds the run's counters into every registry of the
// scope so a single snapshot (or a job's /jobs/{id} view) carries the
// whole picture: CGP search effort, oracle verdict mix, and SAT work.
func recordRunMetrics(reg *obs.Scope, res *Result) {
	if res.CGP != nil {
		tel := res.CGP.Telemetry
		reg.Counter("cgp.evaluations").Add(tel.Evaluations)
		reg.Counter("cgp.adoptions").Add(tel.Adoptions)
		reg.Counter("cgp.neutral_adoptions").Add(tel.NeutralAdoptions)
		reg.Counter("cgp.improvements").Add(tel.Improvements)
		reg.Counter("cgp.mutations_attempted").Add(tel.Mutations.TotalAttempts())
		reg.Counter("cgp.mutations_applied").Add(tel.Mutations.TotalApplied())
		reg.Counter("cgp.migrations").Add(tel.Migrations)
		reg.Counter("cgp.migrations_accepted").Add(tel.MigrationsAccepted)
		reg.Counter("cgp.dedup_skips").Add(tel.DedupSkips)
		reg.Counter("cgp.incremental_evals").Add(tel.IncrementalEvals)
		reg.Counter("cgp.full_evals").Add(tel.FullEvals)
		reg.Counter("cgp.cone_gates").Add(tel.ConeGates)
		if tel.StopReason != "" {
			reg.Counter("cgp.stop." + string(tel.StopReason)).Add(1)
		}
	}
	cs := res.CEC
	reg.Counter("cec.checks").Add(cs.Checks)
	reg.Counter("cec.sim_refuted").Add(cs.SimRefuted)
	reg.Counter("cec.exhaustive_proved").Add(cs.ExhaustiveProved)
	reg.Counter("cec.sat_proved").Add(cs.SATProved)
	reg.Counter("cec.sat_refuted").Add(cs.SATRefuted)
	reg.Counter("cec.sat_aborted").Add(cs.SATAborted)
	reg.Counter("cec.counterexamples").Add(cs.Counterexamples)
	reg.Counter("sat.conflicts").Add(cs.SAT.Conflicts)
	reg.Counter("sat.decisions").Add(cs.SAT.Decisions)
	reg.Counter("sat.propagations").Add(cs.SAT.Propagations)
	reg.Counter("sat.restarts").Add(cs.SAT.Restarts)
	reg.Counter("sat.aborted").Add(cs.SAT.Aborted)
}

// RunTables is Run for a truth-table specification.
func RunTables(tables []tt.TT, opt Options) (*Result, error) {
	return Run(aig.FromTruthTables(tables), opt)
}
