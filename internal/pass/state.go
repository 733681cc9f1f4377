package pass

import (
	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/resub"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/template"
	"github.com/reversible-eda/rcgp/internal/window"
)

// State is the shared pipeline state every pass reads and writes: the
// current network at each abstraction level (AIG → MIG → RQFP netlist),
// the specification oracle, the run's baseline options, the telemetry
// sinks, and the per-pass bookkeeping the Manager maintains.
type State struct {
	// Spec is the untouched input specification; every netlist-mutating
	// pass is verified against it, never against an intermediate.
	Spec *aig.AIG
	// AIG is the classically optimized network (nil until aig.resyn2).
	AIG *aig.AIG
	// MIG is the majority-resynthesized network (nil until mig.resyn;
	// convert falls back to a direct AIG→MIG conversion when absent).
	MIG *mig.MIG
	// Net is the current RQFP netlist (nil until convert).
	Net *rqfp.Netlist
	// Oracle is the equivalence oracle over Spec, created by convert.
	Oracle *cec.Spec

	// Initial and InitialStats freeze the netlist right after conversion —
	// the paper's "Initialization" baseline columns.
	Initial      *rqfp.Netlist
	InitialStats rqfp.Stats
	// AIGAnds and MIGMajs record the intermediate network sizes.
	AIGAnds, MIGMajs int

	// Search accumulates the evolutionary-search report across cgp /
	// anneal / hybrid passes (chained passes merge via AdoptSearch).
	Search *core.Result
	// Window is the windowed-resynthesis report (nil unless the pass ran).
	Window *window.Report
	// Resub is the resubstitution report (nil unless the pass ran).
	Resub *resub.Stats
	// Template is the template-rewrite report (nil unless the pass ran).
	Template *template.Report

	// Templates is the identity-template library the template pass matches
	// against (and, with learning on, feeds). Nil records the pass as
	// skipped.
	Templates *template.Library

	// SynthEffort is the default classical-synthesis effort; the
	// aig.resyn2 pass's effort= option overrides it.
	SynthEffort aig.Effort
	// CGP carries the run's baseline search options (seed, budgets,
	// workers, telemetry hooks); search-pass options override fields of a
	// copy. Seed+1 also seeds the oracle stimulus, and Seed/Workers are
	// the window pass's defaults — exactly the pre-pass-manager wiring.
	CGP core.Options
	// RandomWords sizes the random stimulus for wide circuits.
	RandomWords int

	// Reg is the run-local metric registry (never nil inside Manager.Run;
	// its snapshot becomes Result.Obs) and Tracer the optional JSONL sink.
	// Scope is the write fan-out every pass records through — it always
	// includes Reg, plus any caller-supplied registries (the service layer
	// adds the per-job and process-global ones via the context). Manager.Run
	// normalizes both fields before the first pass executes.
	Reg    *obs.Registry
	Scope  *obs.Scope
	Tracer *obs.Tracer

	// StageTimes is the wall-clock breakdown of the executed passes, in
	// execution order; Skipped records scheduled passes that did not run,
	// each with the reason in StageTime.Skipped.
	StageTimes []obs.StageTime
	Skipped    []obs.StageTime
}

// AdoptSearch installs a search pass's report: the result's best netlist
// becomes the current netlist, and any earlier search report is merged in
// so counters and telemetry accumulate across chained search passes.
func (st *State) AdoptSearch(r *core.Result) {
	if st.Search != nil {
		r.Merge(st.Search)
	}
	st.Search = r
	st.Net = r.Best
}

// netFingerprint hashes the current netlist (0 when absent); the Manager
// compares it around each pass to detect mutation.
func (st *State) netFingerprint() uint64 {
	if st.Net == nil {
		return 0
	}
	return st.Net.Fingerprint()
}

// recordSkip books a scheduled-but-not-run pass: a Skipped entry with the
// reason, a pass.skipped counter tick, and a pass.skip trace event.
func (st *State) recordSkip(name, reason string) {
	st.Skipped = append(st.Skipped, obs.StageTime{Name: name, Skipped: reason})
	if !st.Scope.Empty() {
		st.Scope.Counter("pass.skipped").Inc()
	} else if st.Reg != nil {
		st.Reg.Counter("pass.skipped").Inc()
	}
	if st.Tracer != nil {
		st.Tracer.Emit("pass.skip", map[string]any{"name": name, "reason": reason})
	}
}
