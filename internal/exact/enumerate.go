package exact

import (
	"context"
	"errors"
	"fmt"

	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/sat"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// EnumerateOptions bounds an unroll-exclude enumeration.
type EnumerateOptions struct {
	// ConflictLimit bounds each SAT call (0 = unlimited).
	ConflictLimit int64
	// MaxCircuits stops the enumeration after that many witnesses
	// (0 = exhaust the space).
	MaxCircuits int
}

// ErrEnumIncomplete reports that an enumeration stopped on a budget before
// the space was exhausted — the circuits already delivered are valid, but
// completeness does not hold.
var ErrEnumIncomplete = errors.New("exact: enumeration budget exhausted before completion")

// EnumerateFixed enumerates every RQFP netlist with exactly r gates that
// computes the given output tables, in the unroll-exclude style of SAT
// RevSynth's ECA57 enumeration: solve, extract the witness, block it with
// a clause over the decision variables, repeat until UNSAT. Two structural
// filters keep the space meaningful: every gate must drive at least one
// consumed output port (a dead gate's 512 free configurations would
// otherwise multiply models of the same circuit), and inverter bits of
// dangling majority outputs are normalized to zero, so the enumeration is
// exhaustive over circuits modulo garbage-port configuration.
//
// fn receives each witness and may return false to stop early. The return
// value counts the witnesses delivered; the enumeration order is
// deterministic (the CDCL trajectory is seed-free).
func EnumerateFixed(tables []tt.TT, r int, opt EnumerateOptions, fn func(*rqfp.Netlist) bool) (int, error) {
	if len(tables) == 0 {
		return 0, errors.New("exact: no outputs")
	}
	n := tables[0].N
	for _, f := range tables {
		if f.N != n {
			return 0, errors.New("exact: mixed variable counts")
		}
	}
	if r < 1 {
		return 0, errors.New("exact: enumeration wants at least one gate")
	}
	e := newEncoding(tables, r, encodeOptions{garbageBudget: 3*r + n, liveGates: true})
	count := 0
	for {
		st, err := solve(context.TODO(), e.b.S, opt.ConflictLimit)
		if err != nil {
			return count, err
		}
		if st == sat.Unknown {
			return count, ErrEnumIncomplete
		}
		if st == sat.Unsat {
			return count, nil
		}
		net, err := e.witness()
		if err != nil {
			return count, err
		}
		normalizeGarbageConfigs(net)
		if err := net.Validate(); err != nil {
			return count, fmt.Errorf("exact: normalized witness invalid: %w", err)
		}
		count++
		if !fn(net) {
			return count, nil
		}
		if opt.MaxCircuits > 0 && count >= opt.MaxCircuits {
			return count, ErrEnumIncomplete
		}
		if !e.exclude() {
			return count, nil // blocking clause made the formula UNSAT
		}
	}
}

// IdentityTables returns the truth tables of the n-line identity function,
// f_k(x) = x_k.
func IdentityTables(n int) []tt.TT {
	tables := make([]tt.TT, n)
	for k := 0; k < n; k++ {
		k := k
		tables[k] = tt.FromFunc(n, func(x uint) bool { return x>>uint(k)&1 == 1 })
	}
	return tables
}

// normalizeGarbageConfigs zeroes the inverter bits of majority outputs no
// load consumes, collapsing the 2⁹ config variants of a partially used gate
// onto one canonical representative (the blocking clause leaves those bits
// free, so witnesses would otherwise carry arbitrary values there).
func normalizeGarbageConfigs(n *rqfp.Netlist) {
	used := make(map[rqfp.Signal]bool)
	for _, g := range n.Gates {
		for _, in := range g.In {
			used[in] = true
		}
	}
	for _, po := range n.POs {
		used[po] = true
	}
	for g := range n.Gates {
		for m := 0; m < 3; m++ {
			if used[n.Port(g, m)] {
				continue
			}
			for j := 0; j < 3; j++ {
				n.Gates[g].Cfg &^= 1 << uint(8-3*j-m)
			}
		}
	}
}
