package template

import (
	"fmt"
	"sort"
	"time"

	"github.com/reversible-eda/rcgp/internal/exact"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/sat"
	"github.com/reversible-eda/rcgp/internal/tt"
	"github.com/reversible-eda/rcgp/internal/window"
)

// BuildOptions tunes starter-library generation.
type BuildOptions struct {
	// Lines enumerates identity circuits on 1..Lines lines (default 4).
	Lines int
	// MaxGates bounds each identity circuit (default 2).
	MaxGates int
	// MaxCircuits caps each (lines, gates) enumeration stratum. The cap is
	// a model count, not a wall-clock budget, so a capped generation is
	// still bit-identical across machines (the CDCL trajectory is
	// seed-free). 0 enumerates exhaustively; strata beyond the cap are
	// reported in the BuildReport.
	MaxCircuits int
	// SingleGateSweep additionally closes the library over every function
	// a single gate can compute on up to Lines inputs — the workhorse
	// classes that collapse multi-gate windows to one gate (default on
	// via Build; set SkipSingleGateSweep to disable).
	SkipSingleGateSweep bool
	// ConflictLimit bounds each SAT call of the enumeration and of the
	// per-class exact minimization (0 = unlimited).
	ConflictLimit int64
	// Progress, when non-nil, receives one line per generation stage.
	Progress func(msg string)
}

// BuildReport summarizes a starter-library generation.
type BuildReport struct {
	IdentityCircuits int           `json:"identity_circuits"`
	CappedStrata     []string      `json:"capped_strata,omitempty"`
	Cuts             int           `json:"cuts"`
	Classes          int           `json:"classes"`
	Minimized        int           `json:"minimized"`
	ZeroGate         int           `json:"zero_gate"`
	Entries          int           `json:"entries"`
	Elapsed          time.Duration `json:"elapsed"`
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.Lines <= 0 {
		o.Lines = 4
	}
	if o.Lines > MaxInputs {
		o.Lines = MaxInputs
	}
	if o.MaxGates <= 0 {
		o.MaxGates = 2
	}
	return o
}

// candidate accumulates the best known implementation of one raw function
// (pre-canonicalization dedup keeps the expensive NPN signature off the
// hot path).
type candidate struct {
	tables []tt.TT
	best   *rqfp.Netlist
}

// Build generates a template library from scratch: it enumerates small
// identity circuits with the unroll-exclude SAT enumerator, mines every
// contiguous window cut of every identity circuit as a (function,
// implementation) pair, optionally closes over all single-gate functions,
// exact-minimizes each class representative, and stores the winners. The
// result is deterministic for fixed options.
func Build(opt BuildOptions) (*Library, BuildReport, error) {
	opt = opt.withDefaults()
	start := time.Now()
	rep := BuildReport{}
	progress := opt.Progress
	if progress == nil {
		progress = func(string) {}
	}

	cands := make(map[string]*candidate)
	offer := func(tables []tt.TT, net *rqfp.Netlist) {
		n := tables[0].N
		if n < 1 || n > MaxInputs || len(tables) < 1 || len(tables) > MaxOutputs {
			return
		}
		key := rawKey(tables)
		c, ok := cands[key]
		if !ok {
			cands[key] = &candidate{tables: tables, best: net}
			return
		}
		if len(net.Gates) < len(c.best.Gates) {
			c.best = net
		}
	}

	// Stage 1: identity-circuit cut mining. Every contiguous window of an
	// identity circuit is a function with a known implementation.
	for n := 1; n <= opt.Lines; n++ {
		for r := 1; r <= opt.MaxGates; r++ {
			stratum := fmt.Sprintf("lines=%d gates=%d", n, r)
			count, err := exact.EnumerateFixed(exact.IdentityTables(n), r,
				exact.EnumerateOptions{ConflictLimit: opt.ConflictLimit, MaxCircuits: opt.MaxCircuits},
				func(net *rqfp.Netlist) bool {
					rep.IdentityCircuits++
					for lo := 0; lo < len(net.Gates); lo++ {
						for hi := lo + 1; hi <= len(net.Gates); hi++ {
							ext := window.BuildInterface(net, lo, hi)
							if len(ext.Inputs) < 1 || len(ext.Inputs) > MaxInputs || len(ext.Outputs) < 1 {
								continue
							}
							sub := window.Extract(net, ext)
							rep.Cuts++
							offer(sub.TruthTables(), sub)
						}
					}
					return true
				})
			if err == exact.ErrEnumIncomplete {
				rep.CappedStrata = append(rep.CappedStrata, stratum)
			} else if err != nil {
				return nil, rep, fmt.Errorf("template: identity enumeration (%s): %w", stratum, err)
			}
			progress(fmt.Sprintf("identity %s: %d circuits, %d classes so far", stratum, count, len(cands)))
		}
	}

	// Stage 2: single-gate closure. Enumerate every netlist of one gate
	// over up to Lines inputs (inputs drawn from the constant and distinct
	// PIs, all 512 inverter configurations, every ordered choice of output
	// ports) so any window computing a one-gate function finds its
	// template.
	if !opt.SkipSingleGateSweep {
		for n := 1; n <= opt.Lines; n++ {
			sweepSingleGate(n, offer)
		}
		progress(fmt.Sprintf("single-gate closure: %d classes", len(cands)))
	}
	rep.Classes = len(cands)

	// Stage 3: minimize and store. Raw-key order keeps the generation
	// deterministic; the library itself dedups by canonical class key,
	// keeping the fewest-gate implementation.
	keys := make([]string, 0, len(cands))
	for k := range cands {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lib := New()
	for _, k := range keys {
		c := cands[k]
		best := c.best
		if zero, ok := zeroGateNetlist(c.tables); ok {
			best = zero
			rep.ZeroGate++
		} else {
			for r := 1; r < len(best.Gates); r++ {
				net, st, err := exact.SynthesizeFixed(c.tables, r, 3*r+c.tables[0].N, opt.ConflictLimit)
				if err != nil {
					return nil, rep, fmt.Errorf("template: minimize: %w", err)
				}
				if st == sat.Sat {
					best = net
					rep.Minimized++
					break
				}
				if st == sat.Unknown {
					break // conflict-limited: keep the known implementation
				}
			}
		}
		if _, adopted, err := lib.Learn(c.tables, best); err == nil && adopted {
			rep.Entries++
		}
	}
	rep.Elapsed = time.Since(start)
	return lib, rep, nil
}

// sweepSingleGate enumerates every one-gate netlist on n primary inputs:
// each gate input reads the constant or a distinct PI, all 512 inverter
// configurations, and every non-empty ordered selection of distinct output
// ports as the PO list.
func sweepSingleGate(n int, offer func([]tt.TT, *rqfp.Netlist)) {
	skeleton := rqfp.NewNetlist(n)
	skeleton.AddGate(rqfp.Gate{})
	ports := [3]rqfp.Signal{skeleton.Port(0, 0), skeleton.Port(0, 1), skeleton.Port(0, 2)}

	// Ordered non-empty selections of distinct majorities (output
	// polarity/order both matter to the class key).
	var poSets [][]int
	for a := 0; a < 3; a++ {
		poSets = append(poSets, []int{a})
		for b := 0; b < 3; b++ {
			if b == a {
				continue
			}
			poSets = append(poSets, []int{a, b})
			for c := 0; c < 3; c++ {
				if c == a || c == b {
					continue
				}
				poSets = append(poSets, []int{a, b, c})
			}
		}
	}

	srcs := make([]rqfp.Signal, 0, n+1)
	srcs = append(srcs, rqfp.ConstPort)
	for i := 0; i < n; i++ {
		srcs = append(srcs, skeleton.PIPort(i))
	}
	distinct := func(a, b rqfp.Signal) bool {
		return a == rqfp.ConstPort || b == rqfp.ConstPort || a != b
	}
	for _, in0 := range srcs {
		for _, in1 := range srcs {
			if !distinct(in0, in1) {
				continue
			}
			for _, in2 := range srcs {
				if !distinct(in0, in2) || !distinct(in1, in2) {
					continue
				}
				for cfg := 0; cfg < 512; cfg++ {
					for _, pos := range poSets {
						net := rqfp.NewNetlist(n)
						net.AddGate(rqfp.Gate{In: [3]rqfp.Signal{in0, in1, in2}, Cfg: rqfp.Config(cfg)})
						for _, m := range pos {
							net.POs = append(net.POs, ports[m])
						}
						offer(net.TruthTables(), net)
					}
				}
			}
		}
	}
}

// zeroGateNetlist expresses tables without gates when every output is a
// positive projection of a distinct input or the constant 1 — the splice
// degenerates to rewiring. Negations and constant 0 need a gate to absorb
// the inverter, so they fall through to exact synthesis.
func zeroGateNetlist(tables []tt.TT) (*rqfp.Netlist, bool) {
	n := tables[0].N
	net := rqfp.NewNetlist(n)
	used := make([]bool, n)
	for _, f := range tables {
		assigned := false
		if allOnes(f) {
			net.POs = append(net.POs, rqfp.ConstPort)
			continue
		}
		for i := 0; i < n && !assigned; i++ {
			if used[i] {
				continue
			}
			if isProjection(f, i) {
				net.POs = append(net.POs, net.PIPort(i))
				used[i] = true
				assigned = true
			}
		}
		if !assigned {
			return nil, false
		}
	}
	return net, true
}

func allOnes(f tt.TT) bool {
	for s := uint(0); s < uint(f.Size()); s++ {
		if !f.Get(s) {
			return false
		}
	}
	return true
}

func isProjection(f tt.TT, i int) bool {
	for s := uint(0); s < uint(f.Size()); s++ {
		if f.Get(s) != (s>>uint(i)&1 == 1) {
			return false
		}
	}
	return true
}

// rawKey is the exact (pre-NPN) dedup key of a table tuple.
func rawKey(tables []tt.TT) string {
	key := fmt.Sprintf("%d:%d", tables[0].N, len(tables))
	for _, f := range tables {
		key += ":" + f.Hex()
	}
	return key
}
