package template

import (
	"fmt"
	"time"

	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/window"
)

// RewriteOptions tunes a template sweep. The sweep is deterministic — it
// draws no randomness, so for a fixed netlist and library content the
// result is bit-identical on every machine and worker count.
type RewriteOptions struct {
	// MaxWindow bounds the gate count of scanned windows (default 5).
	MaxWindow int
	// MaxInputs bounds the window interface (default 5, capped at the
	// library's 8-input class limit).
	MaxInputs int
	// MaxRounds bounds full left-to-right sweeps; a sweep that applies no
	// rewrite ends the pass early (default 4).
	MaxRounds int
	// Learn feeds every scanned window of at most LearnMaxGates gates
	// back into the library, so structures other passes discovered (e.g.
	// windows the CGP search shrank) become templates for future jobs.
	Learn bool
	// LearnMaxGates bounds learned window size (default 2).
	LearnMaxGates int
	// Verify, when non-nil, is called with the candidate netlist after
	// every splice (the job's specification oracle); a verification error
	// aborts the sweep.
	Verify func(*rqfp.Netlist) error
}

func (o RewriteOptions) withDefaults() RewriteOptions {
	if o.MaxWindow <= 0 {
		o.MaxWindow = 5
	}
	if o.MaxInputs <= 0 {
		o.MaxInputs = 5
	}
	if o.MaxInputs > MaxInputs {
		o.MaxInputs = MaxInputs
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 4
	}
	if o.LearnMaxGates <= 0 {
		o.LearnMaxGates = 2
	}
	return o
}

// Report summarizes one template sweep.
type Report struct {
	Rounds      int           `json:"rounds"`
	Windows     int           `json:"windows"`
	Hits        int           `json:"hits"`
	Misses      int           `json:"misses"`
	Rewrites    int           `json:"rewrites"`
	GatesBefore int           `json:"gates_before"`
	GatesAfter  int           `json:"gates_after"`
	GatesSaved  int           `json:"gates_saved"`
	Learned     int           `json:"learned"`
	Elapsed     time.Duration `json:"elapsed"`
}

// String renders the report on one line for verbose pipeline output.
func (r Report) String() string {
	return fmt.Sprintf("rounds=%d windows=%d hits=%d rewrites=%d gates %d→%d learned=%d",
		r.Rounds, r.Windows, r.Hits, r.Rewrites, r.GatesBefore, r.GatesAfter, r.Learned)
}

// Rewrite slides contiguous windows over the netlist left to right,
// largest window first at each position, pattern-matches each window's
// exhaustively simulated local function against the library, and splices
// in the stored implementation whenever it strictly reduces the window's
// gate count. Rewriting restarts at the same position after a hit (the
// replacement may enable another), advances otherwise, and repeats whole
// sweeps until a fixpoint or MaxRounds. Search-free: the only work per
// window is simulation plus one canonical-key lookup.
func Rewrite(net *rqfp.Netlist, lib *Library, opt RewriteOptions) (*rqfp.Netlist, Report, error) {
	opt = opt.withDefaults()
	start := time.Now()
	cur := net.Shrink()
	rep := Report{GatesBefore: len(cur.Gates)}

	for round := 0; round < opt.MaxRounds; round++ {
		rep.Rounds++
		changed := false
		cur = cur.Shrink()
		for lo := 0; lo < len(cur.Gates); {
			applied := false
			maxW := opt.MaxWindow
			if rest := len(cur.Gates) - lo; maxW > rest {
				maxW = rest
			}
			for w := maxW; w >= 1 && !applied; w-- {
				ext := window.BuildInterface(cur, lo, lo+w)
				if len(ext.Inputs) < 1 || len(ext.Inputs) > opt.MaxInputs || len(ext.Outputs) < 1 || len(ext.Outputs) > MaxOutputs {
					continue
				}
				sub := window.Extract(cur, ext)
				tables := sub.TruthTables()
				rep.Windows++
				if opt.Learn && w <= opt.LearnMaxGates {
					if _, adopted, err := lib.Learn(tables, sub); err == nil && adopted {
						rep.Learned++
					}
				}
				repl, _, ok := lib.Match(tables)
				if !ok {
					rep.Misses++
					continue
				}
				rep.Hits++
				if len(repl.Gates) >= w {
					continue // a hit, but not an improvement at this window
				}
				next, err := window.Splice(cur, ext, repl)
				if err != nil {
					return nil, rep, fmt.Errorf("template: splice: %w", err)
				}
				if err := next.Validate(); err != nil {
					return nil, rep, fmt.Errorf("template: splice produced invalid netlist: %w", err)
				}
				if opt.Verify != nil {
					if err := opt.Verify(next); err != nil {
						return nil, rep, fmt.Errorf("template: rewrite at window [%d,%d): %w", lo, lo+w, err)
					}
				}
				rep.Rewrites++
				rep.GatesSaved += w - len(repl.Gates)
				cur = next
				changed = true
				applied = true
			}
			if !applied {
				lo++
			}
		}
		if !changed {
			break
		}
	}
	cur = cur.Shrink()
	rep.GatesAfter = len(cur.Gates)
	rep.Elapsed = time.Since(start)
	return cur, rep, nil
}
