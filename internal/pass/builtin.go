package pass

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/resub"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/window"
)

// The built-in passes: the seven Fig. 2 stages plus the three search
// engines, registered under their script names. The search passes all
// report under the historical "flow.cgp" stage name so telemetry keeps the
// pre-pass-manager schema whichever engine runs.
func init() {
	Register(Info{
		Name: "aig.resyn2", Stage: "flow.aig_opt",
		Summary: "classical AIG optimization (ABC resyn2 stand-in)",
		Options: []OptionDoc{
			{Name: "effort", Kind: "fast|std|high", Default: "flow default", Help: "synthesis effort"},
		},
		Build: buildAIGOpt,
	})
	Register(Info{
		Name: "mig.resyn", Stage: "flow.mig_resyn",
		Summary: "majority resynthesis (mockturtle aqfp_resynthesis stand-in)",
		Build:   buildMIGResyn,
	})
	Register(Info{
		Name: "convert", Stage: "flow.convert", Mutates: true,
		Summary: "RQFP netlist conversion + splitter insertion; builds the spec oracle",
		Options: []OptionDoc{
			{Name: "words", Kind: "int", Default: "16", Help: "random stimulus words (×64 patterns) for wide circuits"},
		},
		Build: buildConvert,
	})
	searchOpts := []OptionDoc{
		{Name: "gens", Kind: "int", Default: "20000", Help: "generation budget"},
		{Name: "lambda", Kind: "int", Default: "4", Help: "offspring per generation (λ)"},
		{Name: "mu", Kind: "float", Default: "0.05", Help: "mutation rate (μ)"},
		{Name: "seed", Kind: "int", Default: "flow seed", Help: "random seed override"},
		{Name: "time", Kind: "duration", Default: "none", Help: "wall-clock budget"},
	}
	cgpOpts := append([]OptionDoc{}, searchOpts...)
	cgpOpts = append(cgpOpts,
		OptionDoc{Name: "workers", Kind: "int", Default: "1", Help: "concurrent offspring evaluators (deterministic per seed)"},
		OptionDoc{Name: "islands", Kind: "int", Default: "1", Help: "independent (1+λ) populations with ring migration"},
		OptionDoc{Name: "migrate", Kind: "int", Default: "500", Help: "island epoch length in generations"},
		OptionDoc{Name: "shrink", Kind: "bool", Default: "false", Help: "shrink the chromosome on every improvement"},
	)
	Register(Info{
		Name: "cgp", Stage: "flow.cgp", Mutates: true,
		Summary: "the paper's (1+λ) Cartesian-genetic-programming search",
		Options: cgpOpts,
		Build:   func(args Args) (Pass, error) { return buildSearch(args, "cgp") },
	})
	annealOpts := append([]OptionDoc{}, searchOpts...)
	annealOpts = append(annealOpts,
		OptionDoc{Name: "steps", Kind: "int", Default: "gens·λ", Help: "annealing steps (overrides gens·λ)"},
	)
	Register(Info{
		Name: "anneal", Stage: "flow.cgp", Mutates: true,
		Summary: "simulated annealing over the CGP chromosome",
		Options: annealOpts,
		Build:   func(args Args) (Pass, error) { return buildSearch(args, "anneal") },
	})
	Register(Info{
		Name: "hybrid", Stage: "flow.cgp", Mutates: true,
		Summary: "half-budget CGP, then annealing seeded with its best",
		Options: cgpOpts,
		Build:   func(args Args) (Pass, error) { return buildSearch(args, "hybrid") },
	})
	Register(Info{
		Name: "window", Stage: "flow.window", Mutates: true,
		Summary: "windowed CGP resynthesis for circuits too large to evolve whole",
		Options: []OptionDoc{
			{Name: "rounds", Kind: "int", Default: "50", Help: "window attempts"},
			{Name: "gens", Kind: "int", Default: "5000", Help: "CGP budget per window"},
			{Name: "maxgates", Kind: "int", Default: "12", Help: "window size bound"},
			{Name: "maxinputs", Kind: "int", Default: "10", Help: "window interface bound (≤14)"},
			{Name: "seed", Kind: "int", Default: "flow seed", Help: "window-selection seed override"},
			{Name: "workers", Kind: "int", Default: "flow workers", Help: "per-window evaluator goroutines"},
			{Name: "time", Kind: "duration", Default: "none", Help: "wall-clock budget for the pass"},
		},
		Build: buildWindow,
	})
	Register(Info{
		Name: "resub", Stage: "flow.resub", Mutates: true,
		Summary: "deterministic simulation-driven resubstitution (exhaustive oracles only)",
		Build:   buildResub,
	})
	Register(Info{
		Name: "buffer", Stage: "flow.buffer",
		Summary: "RQFP path-balancing buffer insertion sanity check",
		Build:   buildBuffer,
	})
}

// specSource returns the network the classical front-end passes operate
// on: the latest AIG if one exists, else the raw specification.
func specSource(st *State) (*aig.AIG, error) {
	if st.AIG != nil {
		return st.AIG, nil
	}
	if st.Spec == nil {
		return nil, errors.New("no specification loaded")
	}
	return st.Spec, nil
}

// --- aig.resyn2 ---

type aigOptPass struct {
	effort    aig.Effort
	hasEffort bool
}

func buildAIGOpt(args Args) (Pass, error) {
	r := NewArgReader(args)
	effort := r.StringOpt("effort")
	if err := r.Err(); err != nil {
		return nil, err
	}
	p := &aigOptPass{}
	if effort != nil {
		p.hasEffort = true
		switch *effort {
		case "fast":
			p.effort = aig.EffortFast
		case "std":
			p.effort = aig.EffortStd
		case "high":
			p.effort = aig.EffortHigh
		default:
			return nil, fmt.Errorf("option effort=%q: want fast, std, or high", *effort)
		}
	}
	return p, nil
}

func (p *aigOptPass) Name() string { return "flow.aig_opt" }

func (p *aigOptPass) Run(ctx context.Context, st *State) error {
	src, err := specSource(st)
	if err != nil {
		return err
	}
	effort := st.SynthEffort
	if p.hasEffort {
		effort = p.effort
	}
	st.AIG = src.Optimize(effort)
	st.AIGAnds = st.AIG.NumAnds()
	return nil
}

// --- mig.resyn ---

type migResynPass struct{}

func buildMIGResyn(args Args) (Pass, error) {
	if err := NewArgReader(args).Err(); err != nil {
		return nil, err
	}
	return migResynPass{}, nil
}

func (migResynPass) Name() string { return "flow.mig_resyn" }

func (migResynPass) Run(ctx context.Context, st *State) error {
	src, err := specSource(st)
	if err != nil {
		return err
	}
	st.MIG = mig.ResynthesizeAIG(src)
	st.MIGMajs = st.MIG.NumMajs()
	return nil
}

// --- convert ---

type convertPass struct {
	words    int
	hasWords bool
}

func buildConvert(args Args) (Pass, error) {
	r := NewArgReader(args)
	words := r.IntOpt("words")
	if err := r.Err(); err != nil {
		return nil, err
	}
	p := &convertPass{}
	if words != nil {
		p.words, p.hasWords = *words, true
	}
	return p, nil
}

func (p *convertPass) Name() string { return "flow.convert" }

func (p *convertPass) Run(ctx context.Context, st *State) error {
	m := st.MIG
	if m == nil {
		// Scripts may skip mig.resyn; fall back to the direct (unmapped)
		// AIG→MIG conversion so "aig.resyn2;convert;…" is a valid flow.
		src, err := specSource(st)
		if err != nil {
			return err
		}
		m = mig.FromAIG(src)
		st.MIG = m
		st.MIGMajs = m.NumMajs()
	}
	initial, err := rqfp.FromMIG(m)
	if err != nil {
		return err
	}
	st.Net = initial
	st.Initial = initial
	st.InitialStats = initial.ComputeStats()
	words := st.RandomWords
	if p.hasWords {
		words = p.words
	}
	st.Oracle = cec.NewSpecFromAIG(st.Spec, words, st.CGP.Seed+1)
	st.Oracle.ConfigurePortfolio(cec.PortfolioConfig{
		Provers:   st.CECPortfolio,
		BDDBudget: st.CECBDDBudget,
		Scope:     st.Scope,
	})
	st.Oracle.AttachTracer(st.Tracer)
	// The manager's post-pass hook performs the initialization check.
	return nil
}

// --- cgp / anneal / hybrid ---

// searchPass runs one of the three search engines. All report under the
// "flow.cgp" stage name; options override a copy of the State's baseline
// core.Options.
type searchPass struct {
	engine string // "cgp" | "anneal" | "hybrid"

	gens, lambda     *int
	mu               *float64
	seed             *int64
	budget           *time.Duration
	workers, islands *int
	migrate          *int
	shrink           *bool
	steps            *int
}

func buildSearch(args Args, engine string) (Pass, error) {
	r := NewArgReader(args)
	p := &searchPass{engine: engine}
	p.gens = r.IntOpt("gens")
	p.lambda = r.IntOpt("lambda")
	p.mu = r.FloatOpt("mu")
	p.seed = r.Int64Opt("seed")
	p.budget = r.DurationOpt("time")
	switch engine {
	case "cgp", "hybrid":
		p.workers = r.IntOpt("workers")
		p.islands = r.IntOpt("islands")
		p.migrate = r.IntOpt("migrate")
		p.shrink = r.BoolOpt("shrink")
	case "anneal":
		p.steps = r.IntOpt("steps")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *searchPass) Name() string { return "flow.cgp" }

// options applies the pass's overrides to the State's baseline options.
func (p *searchPass) options(st *State) core.Options {
	o := st.CGP
	if p.gens != nil {
		o.Generations = *p.gens
	}
	if p.lambda != nil {
		o.Lambda = *p.lambda
	}
	if p.mu != nil {
		o.MutationRate = *p.mu
	}
	if p.seed != nil {
		o.Seed = *p.seed
	}
	if p.budget != nil {
		o.TimeBudget = *p.budget
	}
	if p.workers != nil {
		o.Workers = *p.workers
	}
	if p.islands != nil {
		o.Islands = *p.islands
	}
	if p.migrate != nil {
		o.MigrateEvery = *p.migrate
	}
	if p.shrink != nil {
		o.ShrinkOnImprove = *p.shrink
	}
	return o
}

func (p *searchPass) Run(ctx context.Context, st *State) error {
	if st.Net == nil || st.Oracle == nil {
		return errors.New("requires the convert pass before it")
	}
	o := p.options(st)
	lambda := o.Lambda
	if lambda <= 0 {
		lambda = 4
	}
	gens := o.Generations
	if gens <= 0 {
		gens = 20000
	}
	annealOpt := core.AnnealOptions{
		MutationRate: o.MutationRate,
		Seed:         o.Seed,
		TimeBudget:   o.TimeBudget,
		Trace:        o.Trace,
	}
	switch p.engine {
	case "cgp":
		res, err := core.OptimizeContext(ctx, st.Net, st.Oracle, o)
		if err != nil {
			return err
		}
		st.AdoptSearch(res)
	case "anneal":
		annealOpt.Steps = gens * lambda
		if p.steps != nil {
			annealOpt.Steps = *p.steps
		}
		res, err := core.AnnealContext(ctx, st.Net, st.Oracle, annealOpt)
		if err != nil {
			return err
		}
		st.AdoptSearch(res)
	case "hybrid":
		half := o
		half.Generations = gens / 2
		if o.TimeBudget > 0 {
			half.TimeBudget = o.TimeBudget / 2
		}
		first, err := core.OptimizeContext(ctx, st.Net, st.Oracle, half)
		if err != nil {
			return err
		}
		annealOpt.Steps = gens * lambda / 2
		if o.TimeBudget > 0 {
			annealOpt.TimeBudget = o.TimeBudget / 2
		}
		second, err := core.AnnealContext(ctx, first.Best, st.Oracle, annealOpt)
		if err != nil {
			return err
		}
		second.Merge(first)
		st.AdoptSearch(second)
	default:
		return fmt.Errorf("unknown search engine %q", p.engine)
	}
	return nil
}

// --- window ---

type windowPass struct {
	opt     window.Options
	seed    *int64
	workers *int
}

func buildWindow(args Args) (Pass, error) {
	r := NewArgReader(args)
	p := &windowPass{}
	if v := r.IntOpt("rounds"); v != nil {
		p.opt.Rounds = *v
	}
	if v := r.IntOpt("gens"); v != nil {
		p.opt.GenerationsPerWindow = *v
	}
	if v := r.IntOpt("maxgates"); v != nil {
		p.opt.MaxGates = *v
	}
	if v := r.IntOpt("maxinputs"); v != nil {
		p.opt.MaxInputs = *v
	}
	if v := r.DurationOpt("time"); v != nil {
		p.opt.TimeBudget = *v
	}
	p.seed = r.Int64Opt("seed")
	p.workers = r.IntOpt("workers")
	if err := r.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *windowPass) Name() string { return "flow.window" }

func (p *windowPass) Run(ctx context.Context, st *State) error {
	if st.Net == nil {
		return errors.New("requires the convert pass before it")
	}
	opt := p.opt
	opt.Seed = st.CGP.Seed
	if p.seed != nil {
		opt.Seed = *p.seed
	}
	opt.Workers = st.CGP.Workers
	if p.workers != nil {
		opt.Workers = *p.workers
	}
	windowed, rep, err := window.OptimizeContext(ctx, st.Net, opt)
	if err != nil {
		return err
	}
	st.Window = &rep
	st.Net = windowed
	return nil
}

// --- resub ---

type resubPass struct{}

func buildResub(args Args) (Pass, error) {
	if err := NewArgReader(args).Err(); err != nil {
		return nil, err
	}
	return resubPass{}, nil
}

func (resubPass) Name() string { return "flow.resub" }

// SkipReason gates the pass on the exhaustive-oracle limit — previously a
// silent drop in the monolithic flow, now a recorded skip with a reason.
func (resubPass) SkipReason(st *State) string {
	if st.Oracle != nil && st.Oracle.NumPI > cec.ExhaustiveMaxPIs {
		return fmt.Sprintf("needs an exhaustive oracle: %d inputs exceed the %d-input limit",
			st.Oracle.NumPI, cec.ExhaustiveMaxPIs)
	}
	return ""
}

func (resubPass) Run(ctx context.Context, st *State) error {
	if st.Net == nil {
		return errors.New("requires the convert pass before it")
	}
	cleaned, stats, err := resub.Optimize(st.Net)
	if err != nil {
		return err
	}
	st.Resub = &stats
	st.Net = cleaned
	return nil
}

// --- buffer ---

type bufferPass struct{}

func buildBuffer(args Args) (Pass, error) {
	if err := NewArgReader(args).Err(); err != nil {
		return nil, err
	}
	return bufferPass{}, nil
}

func (bufferPass) Name() string { return "flow.buffer" }

func (bufferPass) Run(ctx context.Context, st *State) error {
	if st.Net == nil {
		return errors.New("requires the convert pass before it")
	}
	balanced := st.Net.InsertBuffers()
	if err := balanced.Validate(); err != nil {
		return fmt.Errorf("buffer insertion failed: %w", err)
	}
	return nil
}
