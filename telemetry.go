package rcgp

import (
	"time"

	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/flow"
	"github.com/reversible-eda/rcgp/internal/sat"
)

// StageTime is one entry of the pipeline's wall-clock breakdown, in
// execution order (e.g. "flow.aig_opt", "flow.cgp", "flow.buffer").
type StageTime struct {
	Name     string
	Duration time.Duration
}

// SkippedPass records a pipeline pass that was scheduled but did not run,
// with the reason — e.g. the resubstitution pass on a circuit too wide for
// an exhaustive oracle, or passes behind a cancellation. Nothing is ever
// dropped silently.
type SkippedPass struct {
	Name   string
	Reason string
}

// SATStats are the CDCL solver's search counters. Aborted counts solver
// calls that returned early because the synthesis context was cancelled
// mid-proof.
type SATStats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Aborted      int64
}

// CECStats describe the equivalence oracle's activity: how often the
// bit-parallel simulation screen refuted a candidate outright (the cheap,
// common case), how often a proof came from exhaustive simulation vs. an
// UNSAT miter, and the accumulated SAT solver work.
type CECStats struct {
	Checks           int64
	SimRefuted       int64
	ExhaustiveProved int64
	SATProved        int64
	SATRefuted       int64
	SATUnknown       int64
	// SATAborted is the subset of SATUnknown cut short by cancellation.
	SATAborted      int64
	Counterexamples int64
	SATTime         time.Duration
	Solver          SATStats
}

// MutationStat reports one RQFP-aware mutation kind ("config",
// "gate_input", "po"): how often it was attempted and how often the
// sampled mutation was legal and actually changed the chromosome.
type MutationStat struct {
	Kind     string
	Attempts int64
	Applied  int64
}

// Telemetry is the observability snapshot of one Synthesize run: the
// per-stage time breakdown plus the evolution and equivalence-checking
// counters. All counts are deterministic per seed; only the timings vary
// between runs.
type Telemetry struct {
	// Stages is the pipeline wall-clock breakdown, in execution order.
	Stages []StageTime
	// Skipped lists scheduled pipeline passes that did not run, each with
	// the reason.
	Skipped []SkippedPass
	// Evaluations counts candidate fitness evaluations; EvalsPerSec is
	// the evaluation throughput of the search stage.
	Evaluations int64
	EvalsPerSec float64
	// Mutations breaks the search's point mutations down by kind.
	Mutations []MutationStat
	// Adoptions counts parent replacements, split into strict
	// Improvements and equal-fitness NeutralAdoptions (the neutral drift
	// CGP relies on).
	Adoptions        int64
	NeutralAdoptions int64
	Improvements     int64
	// Migrations counts island-model best-individual transfers attempted
	// (Islands > 1 only); MigrationsAccepted is how many strictly improved
	// the receiving island's parent.
	Migrations         int64
	MigrationsAccepted int64
	// DedupSkips, IncrementalEvals, and FullEvals split Evaluations by
	// evaluation path: fitness inherited from a phenotype-identical parent,
	// dirty-cone re-simulation, or the full reference path (the initial
	// parent, and offspring whose resident parent went stale). The three
	// sum to Evaluations.
	DedupSkips       int64
	IncrementalEvals int64
	FullEvals        int64
	// ConeGates is the total number of gates re-simulated by incremental
	// evaluations; ConeGates/IncrementalEvals is the mean dirty-cone size.
	ConeGates int64
	// StopReason records why the search stopped: "generations" (budget
	// exhausted), "deadline" (TimeBudget expired), or "canceled" (the
	// SynthesizeContext ctx was cancelled). Empty when the CGP stage was
	// skipped.
	StopReason string
	// CEC aggregates the functional-equivalence oracle counters.
	CEC CECStats
	// Template is the template-rewrite pass's report (nil unless the pass
	// ran, i.e. Options.Templates was set or a script named the pass).
	Template *TemplateReport
}

// TemplateReport summarizes one template-rewrite sweep: windows scanned,
// library hits, rewrites applied (each formally verified), gates saved,
// and windows learned back into the library.
type TemplateReport struct {
	Rounds      int           `json:"rounds"`
	Windows     int           `json:"windows"`
	Hits        int64         `json:"hits"`
	Misses      int64         `json:"misses"`
	Rewrites    int           `json:"rewrites"`
	GatesBefore int           `json:"gates_before"`
	GatesAfter  int           `json:"gates_after"`
	GatesSaved  int           `json:"gates_saved"`
	Learned     int           `json:"learned"`
	Elapsed     time.Duration `json:"elapsed"`
}

func satStatsFromInternal(s sat.Stats) SATStats {
	return SATStats{
		Conflicts:    s.Conflicts,
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Restarts:     s.Restarts,
		Aborted:      s.Aborted,
	}
}

func cecStatsFromInternal(s cec.Stats) CECStats {
	return CECStats{
		Checks:           s.Checks,
		SimRefuted:       s.SimRefuted,
		ExhaustiveProved: s.ExhaustiveProved,
		SATProved:        s.SATProved,
		SATRefuted:       s.SATRefuted,
		SATUnknown:       s.SATUnknown,
		SATAborted:       s.SATAborted,
		Counterexamples:  s.Counterexamples,
		SATTime:          s.SATTime,
		Solver:           satStatsFromInternal(s.SAT),
	}
}

func telemetryFromFlow(res *flow.Result) Telemetry {
	t := Telemetry{CEC: cecStatsFromInternal(res.CEC)}
	if rep := res.Template; rep != nil {
		t.Template = &TemplateReport{
			Rounds: rep.Rounds, Windows: rep.Windows,
			Hits: int64(rep.Hits), Misses: int64(rep.Misses),
			Rewrites: rep.Rewrites, GatesBefore: rep.GatesBefore,
			GatesAfter: rep.GatesAfter, GatesSaved: rep.GatesSaved,
			Learned: rep.Learned, Elapsed: rep.Elapsed,
		}
	}
	t.Stages = make([]StageTime, len(res.StageTimes))
	for i, st := range res.StageTimes {
		t.Stages[i] = StageTime{Name: st.Name, Duration: st.Duration}
	}
	for _, sk := range res.Skipped {
		t.Skipped = append(t.Skipped, SkippedPass{Name: sk.Name, Reason: sk.Skipped})
	}
	if res.CGP != nil {
		tel := res.CGP.Telemetry
		t.Evaluations = tel.Evaluations
		t.EvalsPerSec = tel.EvalsPerSec()
		t.Adoptions = tel.Adoptions
		t.NeutralAdoptions = tel.NeutralAdoptions
		t.Improvements = tel.Improvements
		t.Migrations = tel.Migrations
		t.MigrationsAccepted = tel.MigrationsAccepted
		t.DedupSkips = tel.DedupSkips
		t.IncrementalEvals = tel.IncrementalEvals
		t.FullEvals = tel.FullEvals
		t.ConeGates = tel.ConeGates
		t.StopReason = string(tel.StopReason)
		for k := 0; k < len(tel.Mutations.Attempts); k++ {
			t.Mutations = append(t.Mutations, MutationStat{
				Kind:     core.MutationKind(k).String(),
				Attempts: tel.Mutations.Attempts[k],
				Applied:  tel.Mutations.Applied[k],
			})
		}
	}
	return t
}

// MutationAcceptRate is the fraction of attempted point mutations that
// were legal and changed the chromosome (0 when nothing was attempted).
func (t Telemetry) MutationAcceptRate() float64 {
	var att, app int64
	for _, m := range t.Mutations {
		att += m.Attempts
		app += m.Applied
	}
	if att == 0 {
		return 0
	}
	return float64(app) / float64(att)
}

// EquivalentStats is Equivalent plus the SAT solver's search counters for
// the equivalence miter.
func (c *Circuit) EquivalentStats(other *Circuit) (bool, SATStats, error) {
	eq, st, err := cec.NetlistsEquivalentStats(c.net, other.net)
	return eq, satStatsFromInternal(st), err
}
