package core

import (
	"context"
	"time"
)

// StopReason records why a search engine run terminated. Deterministic
// runs (no TimeBudget, no external cancellation) always stop with
// StopGenerations.
type StopReason string

// Stop reasons.
const (
	StopGenerations StopReason = "generations" // budget of generations/steps exhausted
	StopDeadline    StopReason = "deadline"    // TimeBudget (or parent deadline) expired
	StopCanceled    StopReason = "canceled"    // context cancelled (e.g. interrupt signal)
)

// stopFromCtx classifies a cancelled context into a StopReason.
func stopFromCtx(ctx context.Context) StopReason {
	if ctx.Err() == context.DeadlineExceeded {
		return StopDeadline
	}
	return StopCanceled
}

// MutationKind enumerates the paper's three RQFP-aware point mutations
// (§3.2.2): an inverter-configuration flip, a gate-input reconnection, and
// a primary-output reconnection.
type MutationKind int

const (
	MutConfig MutationKind = iota
	MutGateInput
	MutPO
	NumMutationKinds
)

func (k MutationKind) String() string {
	switch k {
	case MutConfig:
		return "config"
	case MutGateInput:
		return "gate_input"
	case MutPO:
		return "po"
	default:
		return "unknown"
	}
}

// MutationStats counts attempted vs. actually applied point mutations by
// kind. An attempt that samples a no-op or a structurally illegal swap
// (the paper's rules only fire when legal) counts as attempted but not
// applied, so Applied/Attempts is the mutation legality rate per kind.
type MutationStats struct {
	Attempts [NumMutationKinds]int64
	Applied  [NumMutationKinds]int64
}

// Add accumulates o into m, for merging stats across engine runs.
func (m *MutationStats) Add(o MutationStats) {
	for k := 0; k < int(NumMutationKinds); k++ {
		m.Attempts[k] += o.Attempts[k]
		m.Applied[k] += o.Applied[k]
	}
}

// TotalAttempts sums attempts over all kinds.
func (m *MutationStats) TotalAttempts() int64 {
	var t int64
	for _, v := range m.Attempts {
		t += v
	}
	return t
}

// TotalApplied sums applied mutations over all kinds.
func (m *MutationStats) TotalApplied() int64 {
	var t int64
	for _, v := range m.Applied {
		t += v
	}
	return t
}

// Telemetry is the per-run counter snapshot of a search engine run. All
// counts are deterministic per seed; Elapsed (and therefore EvalsPerSec)
// is the only wall-clock-dependent field.
type Telemetry struct {
	// Evaluations counts fitness evaluations (candidate simulations).
	Evaluations int64
	// Elapsed is the wall-clock time of the run.
	Elapsed time.Duration
	// Mutations breaks attempts/applications down by mutation kind.
	Mutations MutationStats
	// Adoptions counts generations whose best offspring replaced the
	// parent (the (1+λ) "better or equal" rule), including neutral drift.
	Adoptions int64
	// NeutralAdoptions counts adoptions at exactly equal fitness — the
	// neutral drift CGP relies on to escape plateaus.
	NeutralAdoptions int64
	// Improvements counts strict parent improvements.
	Improvements int64
	// Shrinks counts in-run shrink passes (ShrinkOnImprove only; the
	// final shrink of the returned best individual is not counted).
	Shrinks int64
	// Migrations / MigrationsAccepted count island-model migration
	// attempts and the subset where the incoming individual replaced the
	// receiving island's parent (Islands > 1 only).
	Migrations         int64
	MigrationsAccepted int64
	// DedupSkips, IncrementalEvals, and FullEvals split Evaluations by how
	// the engine scored each candidate: inherited from the parent because
	// the phenotype is identical, scored by dirty-cone re-simulation, or
	// scored in full by Evaluator.Evaluate (each run's initial parent, and
	// a fallback when the resident parent is missing or stale). Evaluations
	// counts all three, so the counter — and checkpoint/resume arithmetic —
	// is path-independent.
	DedupSkips       int64
	IncrementalEvals int64
	FullEvals        int64
	// ConeGates accumulates the number of gates simulated before the
	// verdict across all incremental evaluations, inactive cone gates
	// included: the one-word screen's gates plus those of any full-width
	// sweep after it. ConeGates/IncrementalEvals is the mean simulation
	// work per evaluation (compare with the parent's gate count for the
	// saving). Either sweep ends at a refuted offspring's first wrong
	// output.
	ConeGates int64
	// StopReason records why the run terminated.
	StopReason StopReason
}

// count adds one completed evaluation to Evaluations and to its share of
// the dedup / incremental / full split.
func (t *Telemetry) count(out Outcome) {
	t.Evaluations++
	switch {
	case out.Dedup:
		t.DedupSkips++
	case out.Incremental:
		t.IncrementalEvals++
		t.ConeGates += int64(out.ConeGates)
	default:
		t.FullEvals++
	}
}

// Add accumulates o into t, for merging the phases of a hybrid run or the
// islands of a multi-population run. t keeps its own StopReason unless it
// is empty (the phase that terminates the run decides the reason).
func (t *Telemetry) Add(o Telemetry) {
	t.Evaluations += o.Evaluations
	t.Elapsed += o.Elapsed
	t.Mutations.Add(o.Mutations)
	t.Adoptions += o.Adoptions
	t.NeutralAdoptions += o.NeutralAdoptions
	t.Improvements += o.Improvements
	t.Shrinks += o.Shrinks
	t.Migrations += o.Migrations
	t.MigrationsAccepted += o.MigrationsAccepted
	t.DedupSkips += o.DedupSkips
	t.IncrementalEvals += o.IncrementalEvals
	t.FullEvals += o.FullEvals
	t.ConeGates += o.ConeGates
	if t.StopReason == "" {
		t.StopReason = o.StopReason
	}
}

// EvalsPerSec is the evaluation throughput of the run (0 when Elapsed is
// too small to measure).
func (t Telemetry) EvalsPerSec() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Evaluations) / t.Elapsed.Seconds()
}
