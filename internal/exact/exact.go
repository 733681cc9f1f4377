// Package exact implements SAT-based exact synthesis of RQFP logic
// circuits — the baseline the RCGP paper compares against (Fu et al.,
// ICCAD 2023, there driven by Z3; here by the internal CDCL solver).
//
// Given the truth tables of the target outputs, the encoder asks: does an
// RQFP netlist with exactly r gates and at most g garbage outputs exist?
// Decision variables choose every gate input's source port (one-hot over
// the constant, the primary inputs, and earlier gates' ports), the 9-bit
// inverter configuration of every gate, and every primary output's port.
// Functional correctness is enforced pointwise over all 2ⁿ assignments,
// the single-fanout rule by at-most-one constraints per port, and the
// garbage budget by a sequential-counter cardinality constraint. Gate
// count is minimized first, then garbage — the paper's priority order.
// The encoding grows as Θ(r²·2ⁿ), which is exactly why the paper finds
// exact synthesis hopeless beyond tiny circuits.
package exact

import (
	"context"
	"errors"
	"time"

	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/sat"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// Options bounds the search.
type Options struct {
	// MaxGates caps the outer gate-count loop. Default 8.
	MaxGates int
	// ConflictLimit bounds each SAT call (0 = unlimited).
	ConflictLimit int64
	// TimeBudget bounds the whole synthesis (0 = unlimited).
	TimeBudget time.Duration
	// SkipGarbageMinimization stops after the first feasible gate count
	// instead of shrinking the garbage budget.
	SkipGarbageMinimization bool
}

// Result is a successful synthesis.
type Result struct {
	Netlist *rqfp.Netlist
	Gates   int
	Garbage int
	// Runtime is the total wall-clock time spent.
	Runtime time.Duration
}

// ErrTimeout reports that the budget elapsed before a verdict; larger
// instances reproduce the paper's "\" (no solution within the limit) rows.
var ErrTimeout = errors.New("exact: budget exhausted")

// solve runs one uninterrupted SAT call. conflictLimit > 0 caps the
// conflicts of this call; a deadline on ctx stops the search within a few
// hundred conflicts of expiring. Either budget running out yields Unknown.
func solve(ctx context.Context, s *sat.Solver, conflictLimit int64) (sat.Status, error) {
	s.ConflictLimit = 0
	if conflictLimit > 0 {
		conflicts, _, _, _ := s.Stats()
		s.ConflictLimit = conflicts + conflictLimit
	}
	s.SetContext(ctx)
	st, err := s.Solve()
	if errors.Is(err, sat.ErrLimit) || errors.Is(err, context.DeadlineExceeded) {
		return sat.Unknown, nil
	}
	return st, err
}

// ErrUnsat reports that no circuit exists within MaxGates.
var ErrUnsat = errors.New("exact: no RQFP circuit within the gate bound")

// Synthesize finds a gate-minimal (then garbage-minimal) RQFP netlist for
// the given output truth tables.
func Synthesize(tables []tt.TT, opt Options) (*Result, error) {
	if len(tables) == 0 {
		return nil, errors.New("exact: no outputs")
	}
	n := tables[0].N
	for _, f := range tables {
		if f.N != n {
			return nil, errors.New("exact: mixed variable counts")
		}
	}
	if opt.MaxGates <= 0 {
		opt.MaxGates = 8
	}
	start := time.Now()
	ctx := context.TODO()
	if opt.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(opt.TimeBudget))
		defer cancel()
	}
	for r := 1; r <= opt.MaxGates; r++ {
		if ctx.Err() != nil {
			return nil, ErrTimeout
		}
		// Unlimited garbage first: every port may dangle.
		maxGarbage := 3*r + n
		net, st, err := solveFixed(ctx, tables, r, maxGarbage, opt.ConflictLimit)
		if err != nil {
			return nil, err
		}
		if st == sat.Unknown {
			return nil, ErrTimeout
		}
		if st == sat.Unsat {
			continue
		}
		best := &Result{Netlist: net, Gates: r, Garbage: net.Garbage()}
		if !opt.SkipGarbageMinimization {
			for g := best.Garbage - 1; g >= 0; g-- {
				if ctx.Err() != nil {
					break
				}
				net, st, err = solveFixed(ctx, tables, r, g, opt.ConflictLimit)
				if err != nil {
					return nil, err
				}
				if st != sat.Sat {
					break
				}
				actual := net.Garbage()
				best = &Result{Netlist: net, Gates: r, Garbage: actual}
				if actual < g {
					g = actual // jump past the already-achieved budget
				}
			}
		}
		best.Runtime = time.Since(start)
		return best, nil
	}
	return nil, ErrUnsat
}

// SynthesizeFixed decides feasibility for an exact gate count and garbage
// budget, returning the witness netlist on success.
func SynthesizeFixed(tables []tt.TT, gates, garbage int, conflictLimit int64) (*rqfp.Netlist, sat.Status, error) {
	return solveFixed(context.TODO(), tables, gates, garbage, conflictLimit)
}

func solveFixed(ctx context.Context, tables []tt.TT, r, garbageBudget int, conflictLimit int64) (*rqfp.Netlist, sat.Status, error) {
	e := newEncoding(tables, r, encodeOptions{garbageBudget: garbageBudget})
	st, err := solve(ctx, e.b.S, conflictLimit)
	if err != nil {
		return nil, sat.Unknown, err
	}
	if st != sat.Sat {
		return nil, st, nil
	}
	net, err := e.witness()
	if err != nil {
		return nil, sat.Unknown, err
	}
	return net, sat.Sat, nil
}
