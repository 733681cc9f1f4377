// Package flow runs the full RCGP pipeline of Fig. 2: specification →
// classical AIG optimization ("resyn2" stage) → majority resynthesis
// ("aqfp_resynthesis" stage) → RQFP netlist conversion with splitter
// insertion → CGP-based optimization → RQFP buffer insertion, with the
// heuristic initialization baseline reported alongside.
//
// The pipeline is one fixed sequence of named stages built from Options.
// A single loop runs them and owns every cross-cutting rule once: a
// telemetry span and StageTimes entry per executed stage, skip records
// with a reason, cancellation between stages, and equivalence
// verification against the untouched specification after every stage that
// changed the RQFP netlist.
package flow

import (
	"context"
	"fmt"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/resub"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/template"
	"github.com/reversible-eda/rcgp/internal/tt"
	"github.com/reversible-eda/rcgp/internal/window"
)

// Options configures one pipeline run.
type Options struct {
	// CGP configures the evolutionary optimization; CGP.Generations = 0
	// picks the core default.
	CGP core.Options
	// SkipCGP stops after initialization (the paper's first baseline).
	SkipCGP bool
	// WindowRounds, when positive, runs windowed CGP resynthesis after
	// the global evolution — the scalability technique for circuits too
	// large to evolve whole.
	WindowRounds int
	// Resub, when set, finishes with deterministic simulation-driven
	// resubstitution. The stage needs an exhaustive oracle (circuits ≤ 14
	// inputs); on wider circuits it is recorded as skipped with a reason
	// in Result.Skipped.
	Resub bool
	// Optimizer selects the search engine: "cgp" (default — the paper's
	// (1+λ) evolutionary strategy), "anneal" (simulated annealing over the
	// same chromosome/mutations), or "hybrid" (half the budget each,
	// annealing seeded with the CGP result).
	Optimizer string
	// Templates, when non-nil, enables the search-free identity-template
	// rewriting stage after the search. Scanned small windows are learned
	// back into the library.
	Templates *template.Library
	// Trace, when non-nil, receives the run's JSONL telemetry: pipeline
	// span begin/end events, CGP generation checkpoints and improvement
	// events, and CEC SAT verdicts.
	Trace *obs.Tracer
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

	// CGP is the search report (nil when the search stage did not run).
	CGP *core.Result
	// Window is the windowed-resynthesis report (nil unless requested).
	Window *window.Report
	// Resub is the resubstitution report (nil unless the stage ran).
	Resub *resub.Stats
	// Template is the template-rewrite report (nil unless the stage ran).
	Template *template.Report

	// StageTimes is the wall-clock breakdown per executed pipeline stage,
	// in execution order. Skipped records scheduled stages that did not
	// run — the resubstitution stage on a too-wide circuit, or stages
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

// RunContext is Run under an external cancellation context, threaded
// through every stage down to the SAT solver: cancelling ctx lets the
// current stage wind down (the search stages return their validated
// best-so-far), records the remaining stages as skipped, and returns the
// verified result; cancelling before the netlist exists returns the
// context error.
func RunContext(ctx context.Context, spec *aig.AIG, opt Options) (*Result, error) {
	start := time.Now()
	p := newPipeline(ctx, opt)
	stages, err := p.stages(spec, opt)
	if err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	if err := p.run(ctx, stages); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	res := &p.res
	if res.Final == nil {
		return nil, fmt.Errorf("flow: canceled before initialization: %w", ctx.Err())
	}
	if res.Final == res.Initial {
		res.FinalStats = res.InitialStats
	} else {
		res.FinalStats = res.Final.ComputeStats()
	}
	res.CEC = res.Spec.Stats()
	recordRunMetrics(p.scope, res)
	res.Obs = p.reg.Snapshot()
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

// stage is one pipeline step: its telemetry name, a skip reason fixed when
// the pipeline is built (a non-empty reason records the stage as skipped
// without opening a span), and the work itself.
type stage struct {
	name string
	skip string
	run  func(ctx context.Context) error
}

// pipeline is one run's state. Its result doubles as the stage state:
// res.Final is the current netlist and res.Spec the oracle every
// netlist-changing stage is verified against.
type pipeline struct {
	reg    *obs.Registry
	scope  *obs.Scope
	tracer *obs.Tracer
	cgp    core.Options
	res    Result
}

// newPipeline sets up the run's telemetry. The write scope spans the run
// registry plus whatever the context carries — the service layer threads a
// per-job + process-global scope through ctx, so one instrumented code
// path feeds /jobs/{id}, /metrics, and Result.Obs at once.
func newPipeline(ctx context.Context, opt Options) *pipeline {
	reg := obs.NewRegistry()
	if opt.Trace != nil {
		reg.AttachTracer(opt.Trace)
	}
	p := &pipeline{reg: reg, scope: obs.ScopeFrom(ctx).With(reg), tracer: opt.Trace, cgp: opt.CGP}
	p.cgp.Metrics = p.scope
	if p.cgp.Trace == nil {
		p.cgp.Trace = opt.Trace
	}
	return p
}

// stages builds the Fig. 2 sequence for opt: aig_opt → mig_resyn →
// convert → cgp (unless SkipCGP) → window (WindowRounds > 0) → resub
// (Resub) → template (Templates != nil) → buffer.
func (p *pipeline) stages(spec *aig.AIG, opt Options) ([]stage, error) {
	var (
		opted *aig.AIG
		maj   *mig.MIG
	)
	r := &p.res
	stages := []stage{
		{name: "flow.aig_opt", run: func(context.Context) error {
			opted = spec.Optimize(aig.EffortStd)
			r.AIGAnds = opted.NumAnds()
			return nil
		}},
		{name: "flow.mig_resyn", run: func(context.Context) error {
			maj = mig.ResynthesizeAIG(opted)
			r.MIGMajs = maj.NumMajs()
			return nil
		}},
		{name: "flow.convert", run: func(context.Context) error {
			initial, err := rqfp.FromMIG(maj)
			if err != nil {
				return err
			}
			r.Initial, r.Final = initial, initial
			r.InitialStats = initial.ComputeStats()
			r.Spec = cec.NewSpecFromAIG(spec, cec.DefaultRandomWords, p.cgp.Seed+1)
			r.Spec.AttachScope(p.scope)
			r.Spec.AttachTracer(p.tracer)
			// The loop's post-stage proof is the initialization check.
			return nil
		}},
	}
	if !opt.SkipCGP {
		switch opt.Optimizer {
		case "", "cgp", "anneal", "hybrid":
		default:
			return nil, fmt.Errorf("unknown optimizer %q (cgp|anneal|hybrid)", opt.Optimizer)
		}
		stages = append(stages, stage{name: "flow.cgp", run: func(ctx context.Context) error {
			return p.search(ctx, opt.Optimizer)
		}})
	}
	if opt.WindowRounds > 0 {
		stages = append(stages, stage{name: "flow.window", run: func(ctx context.Context) error {
			wopt := window.Options{Rounds: opt.WindowRounds, Seed: p.cgp.Seed, Workers: p.cgp.Workers}
			windowed, rep, err := window.OptimizeContext(ctx, r.Final, wopt)
			if err != nil {
				return err
			}
			r.Window, r.Final = &rep, windowed
			return nil
		}})
	}
	if opt.Resub {
		var skip string
		if n := spec.NumPIs(); n > cec.ExhaustiveMaxPIs {
			skip = fmt.Sprintf("needs an exhaustive oracle: %d inputs exceed the %d-input limit",
				n, cec.ExhaustiveMaxPIs)
		}
		stages = append(stages, stage{name: "flow.resub", skip: skip, run: func(context.Context) error {
			cleaned, stats, err := resub.Optimize(r.Final)
			if err != nil {
				return err
			}
			r.Resub, r.Final = &stats, cleaned
			return nil
		}})
	}
	if opt.Templates != nil {
		stages = append(stages, stage{name: "flow.template", run: func(context.Context) error {
			return p.rewrite(opt.Templates)
		}})
	}
	stages = append(stages, stage{name: "flow.buffer", run: func(context.Context) error {
		if err := r.Final.InsertBuffers().Validate(); err != nil {
			return fmt.Errorf("buffer insertion failed: %w", err)
		}
		return nil
	}})
	return stages, nil
}

// search is the flow.cgp stage. Anneal runs gens·λ steps; hybrid spends
// half the generations (and half of any time budget) on CGP, then anneals
// its best for gens·λ/2 steps. The engines read a budget of 0 as "use the
// default", so a CGP half of 0 generations is skipped, and annealing gets
// at least one step.
func (p *pipeline) search(ctx context.Context, engine string) error {
	o := p.cgp
	lambda := o.Lambda
	if lambda <= 0 {
		lambda = 4
	}
	gens := o.Generations
	if gens <= 0 {
		gens = 20000
	}
	anneal := core.AnnealOptions{
		Steps:        gens * lambda,
		MutationRate: o.MutationRate,
		Seed:         o.Seed,
		TimeBudget:   o.TimeBudget,
		Trace:        o.Trace,
	}
	r := &p.res
	var (
		res *core.Result
		err error
	)
	switch engine {
	case "anneal":
		res, err = core.AnnealContext(ctx, r.Final, r.Spec, anneal)
	case "hybrid":
		half := o
		half.Generations = gens / 2
		anneal.Steps = max(anneal.Steps/2, 1)
		if o.TimeBudget > 0 {
			half.TimeBudget = o.TimeBudget / 2
			anneal.TimeBudget = o.TimeBudget / 2
		}
		var first *core.Result
		from := r.Final
		if half.Generations > 0 {
			if first, err = core.OptimizeContext(ctx, r.Final, r.Spec, half); err != nil {
				return err
			}
			from = first.Best
		}
		if res, err = core.AnnealContext(ctx, from, r.Spec, anneal); err == nil {
			res.Merge(first)
		}
	default:
		res, err = core.OptimizeContext(ctx, r.Final, r.Spec, o)
	}
	if err != nil {
		return err
	}
	r.CGP, r.Final = res, res.Best
	return nil
}

// rewrite is the flow.template stage: a library sweep with default window
// bounds and learning on, every splice proved against the oracle.
func (p *pipeline) rewrite(lib *template.Library) error {
	r := &p.res
	opt := template.RewriteOptions{
		Learn:  true,
		Verify: func(n *rqfp.Netlist) error { return r.Spec.VerifyEquivalent(n) },
	}
	rewritten, rep, err := template.Rewrite(r.Final, lib, opt)
	if err != nil {
		return err
	}
	r.Template, r.Final = &rep, rewritten
	p.scope.Counter("template.windows").Add(int64(rep.Windows))
	p.scope.Counter("template.hits").Add(int64(rep.Hits))
	p.scope.Counter("template.misses").Add(int64(rep.Misses))
	p.scope.Counter("template.rewrites").Add(int64(rep.Rewrites))
	p.scope.Counter("template.gates_saved").Add(int64(rep.GatesSaved))
	p.scope.Counter("template.learned").Add(int64(rep.Learned))
	if p.tracer != nil {
		p.tracer.Emit("template.done", map[string]any{
			"windows": rep.Windows, "hits": rep.Hits, "rewrites": rep.Rewrites,
			"gates_before": rep.GatesBefore, "gates_after": rep.GatesAfter,
			"learned": rep.Learned,
		})
	}
	return nil
}

// run executes the stages under the flow.synth span. Once ctx is cancelled
// the current stage winds down (every stage threads ctx into its engine)
// and the remaining stages are recorded as skipped — run still returns nil
// so the caller can hand back the validated best-so-far netlist. A stage
// error, or a failed post-stage equivalence proof, aborts the pipeline
// with the stage's name wrapped into the error.
func (p *pipeline) run(ctx context.Context, stages []stage) error {
	root := p.scope.Span("flow.synth")
	defer root.End()
	r := &p.res
	for i, s := range stages {
		if ctx.Err() != nil {
			for _, rest := range stages[i:] {
				p.skip(rest.name, "canceled")
			}
			return nil
		}
		if s.skip != "" {
			p.skip(s.name, s.skip)
			continue
		}
		before := fingerprint(r.Final)
		sp := root.Child(s.name)
		err := s.run(ctx)
		// Any stage that changed the netlist — pointer swap or in-place
		// edit, the fingerprint catches both — must still implement the
		// untouched specification.
		if err == nil && r.Spec != nil && fingerprint(r.Final) != before {
			err = r.Spec.VerifyEquivalent(r.Final)
		}
		r.StageTimes = append(r.StageTimes, obs.StageTime{Name: s.name, Duration: sp.End()})
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// fingerprint hashes a netlist (0 when absent).
func fingerprint(n *rqfp.Netlist) uint64 {
	if n == nil {
		return 0
	}
	return n.Fingerprint()
}

// skip books a scheduled stage that did not run: a Skipped entry with the
// reason, a pass.skipped counter tick, and a pass.skip trace event.
func (p *pipeline) skip(name, reason string) {
	p.res.Skipped = append(p.res.Skipped, obs.StageTime{Name: name, Skipped: reason})
	p.scope.Counter("pass.skipped").Inc()
	if p.tracer != nil {
		p.tracer.Emit("pass.skip", map[string]any{"name": name, "reason": reason})
	}
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
	reg.Counter("cec.structural_proved").Add(cs.StructuralProved)
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
