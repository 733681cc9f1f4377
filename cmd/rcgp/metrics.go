package main

import (
	"fmt"
	"io"
	"time"

	rcgp "github.com/reversible-eda/rcgp"
)

// writeMetrics renders the -metrics summary: the per-stage wall-clock
// breakdown, the CGP search counters, and the equivalence-oracle / SAT
// counters of one synthesis run.
func writeMetrics(w io.Writer, res *rcgp.Result) {
	tel := res.Telemetry
	fmt.Fprintf(w, "--- stage breakdown (total %.3fs) ---\n", res.Runtime.Seconds())
	for _, st := range tel.Stages {
		pct := 0.0
		if res.Runtime > 0 {
			pct = 100 * float64(st.Duration) / float64(res.Runtime)
		}
		fmt.Fprintf(w, "  %-16s %10.3fs  %5.1f%%\n", st.Name, st.Duration.Seconds(), pct)
	}

	if len(tel.Skipped) > 0 {
		fmt.Fprintf(w, "--- skipped passes ---\n")
		for _, sk := range tel.Skipped {
			fmt.Fprintf(w, "  %-16s %s\n", sk.Name, sk.Reason)
		}
	}

	fmt.Fprintf(w, "--- cgp ---\n")
	fmt.Fprintf(w, "  evaluations      %10d  (%.0f evals/sec)\n", tel.Evaluations, tel.EvalsPerSec)
	fmt.Fprintf(w, "  adoptions        %10d  (%d improvements, %d neutral)\n",
		tel.Adoptions, tel.Improvements, tel.NeutralAdoptions)
	if tel.Migrations > 0 {
		fmt.Fprintf(w, "  migrations       %10d  (%d accepted)\n", tel.Migrations, tel.MigrationsAccepted)
	}
	if tel.IncrementalEvals > 0 || tel.DedupSkips > 0 {
		fmt.Fprintf(w, "  dedup skips      %10d  (%.1f%% of evaluations)\n",
			tel.DedupSkips, 100*float64(tel.DedupSkips)/float64(tel.Evaluations))
		meanCone := 0.0
		if tel.IncrementalEvals > 0 {
			meanCone = float64(tel.ConeGates) / float64(tel.IncrementalEvals)
		}
		fmt.Fprintf(w, "  incremental      %10d  (%d full, mean cone %.1f gates)\n",
			tel.IncrementalEvals, tel.FullEvals, meanCone)
	}
	if tel.StopReason != "" {
		fmt.Fprintf(w, "  stop reason      %10s\n", tel.StopReason)
	}
	for _, m := range tel.Mutations {
		rate := 0.0
		if m.Attempts > 0 {
			rate = 100 * float64(m.Applied) / float64(m.Attempts)
		}
		fmt.Fprintf(w, "  mut %-12s %10d attempted, %d applied (%.1f%%)\n",
			m.Kind, m.Attempts, m.Applied, rate)
	}
	fmt.Fprintf(w, "  mut accept rate  %9.1f%%\n", 100*tel.MutationAcceptRate())

	c := tel.CEC
	fmt.Fprintf(w, "--- cec ---\n")
	fmt.Fprintf(w, "  checks           %10d\n", c.Checks)
	fmt.Fprintf(w, "  sim refuted      %10d\n", c.SimRefuted)
	fmt.Fprintf(w, "  exhaustive proof %10d\n", c.ExhaustiveProved)
	fmt.Fprintf(w, "  sat proved       %10d  (%d by structural hashing alone)\n", c.SATProved, c.StructuralProved)
	fmt.Fprintf(w, "  sat refuted      %10d  (%d counterexamples learned)\n", c.SATRefuted, c.Counterexamples)
	if c.SATUnknown > 0 {
		fmt.Fprintf(w, "  sat unknown      %10d  (%d aborted by cancellation)\n", c.SATUnknown, c.SATAborted)
	}
	if c.SATTime > 0 || c.Solver != (rcgp.SATStats{}) {
		fmt.Fprintf(w, "  sat time         %10s\n", c.SATTime.Round(time.Microsecond))
		fmt.Fprintf(w, "  sat solver       %d conflicts, %d decisions, %d propagations, %d restarts\n",
			c.Solver.Conflicts, c.Solver.Decisions, c.Solver.Propagations, c.Solver.Restarts)
	}
}
