package exact

import (
	"errors"
	"fmt"

	"github.com/reversible-eda/rcgp/internal/cnf"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/sat"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// encoding is one instantiation of the exact-synthesis SAT encoding for a
// fixed gate count: the decision variables (input-source selections, 9-bit
// inverter configurations, output-port selections) plus the handles needed
// to extract a witness netlist from a model or to exclude a model with a
// blocking clause (the unroll-exclude enumeration step). Both Synthesize
// and the template enumerator build on it.
type encoding struct {
	b        *cnf.Builder
	n        int // primary inputs
	r        int // gates
	numPorts int
	skeleton *rqfp.Netlist
	sel      [][3][]sat.Lit // sel[i][j][p]: gate i input j reads port p
	cfg      [][9]sat.Lit   // cfg[i][k]: inverter bit k of gate i
	outSel   [][]sat.Lit    // outSel[k][p]: PO k reads port p
	users    [][]sat.Lit    // users[p]: selection lits that consume port p
}

// encodeOptions tunes structural side constraints of the encoding.
type encodeOptions struct {
	// garbageBudget caps unused non-constant ports (AtMostK).
	garbageBudget int
	// liveGates requires every gate to drive at least one consumed output
	// port, excluding dead gates whose 512 free configurations would
	// otherwise multiply enumeration models without changing the circuit.
	liveGates bool
}

// newEncoding builds the full exact-synthesis encoding for r gates over the
// given output tables.
func newEncoding(tables []tt.TT, r int, opt encodeOptions) *encoding {
	n := tables[0].N
	numPat := 1 << uint(n)
	b := cnf.NewBuilder()

	// Candidate source ports for gate i input j: the constant, the PIs,
	// and ports of gates < i. Port numbering matches rqfp.Netlist.
	skeleton := rqfp.NewNetlist(n)
	for i := 0; i < r; i++ {
		skeleton.AddGate(rqfp.Gate{})
	}
	numPorts := skeleton.NumPorts()

	e := &encoding{b: b, n: n, r: r, numPorts: numPorts, skeleton: skeleton}

	// Selection variables.
	e.sel = make([][3][]sat.Lit, r)
	for i := 0; i < r; i++ {
		base := int(skeleton.GateBase(i))
		for j := 0; j < 3; j++ {
			e.sel[i][j] = make([]sat.Lit, base)
			for p := 0; p < base; p++ {
				e.sel[i][j][p] = b.Lit()
			}
			b.ExactlyOne(e.sel[i][j])
		}
	}
	e.cfg = make([][9]sat.Lit, r)
	for i := 0; i < r; i++ {
		for k := 0; k < 9; k++ {
			e.cfg[i][k] = b.Lit()
		}
	}
	e.outSel = make([][]sat.Lit, len(tables))
	for k := range tables {
		e.outSel[k] = make([]sat.Lit, numPorts)
		for p := 0; p < numPorts; p++ {
			e.outSel[k][p] = b.Lit()
		}
		b.ExactlyOne(e.outSel[k])
	}

	// Port values per input pattern. Constants and PIs fold to fixed
	// literals; gate ports become Tseitin outputs.
	val := make([][]sat.Lit, numPorts)
	for p := range val {
		val[p] = make([]sat.Lit, numPat)
	}
	for t := 0; t < numPat; t++ {
		val[rqfp.ConstPort][t] = b.ConstTrue
		for i := 0; i < n; i++ {
			if t>>uint(i)&1 == 1 {
				val[skeleton.PIPort(i)][t] = b.ConstTrue
			} else {
				val[skeleton.PIPort(i)][t] = b.ConstFalse()
			}
		}
	}
	for i := 0; i < r; i++ {
		base := int(skeleton.GateBase(i))
		for t := 0; t < numPat; t++ {
			// Selected input values w[j].
			var w [3]sat.Lit
			for j := 0; j < 3; j++ {
				w[j] = b.Lit()
				for p := 0; p < base; p++ {
					v := val[p][t]
					// sel → (w ↔ v)
					b.AddClause(e.sel[i][j][p].Not(), v.Not(), w[j])
					b.AddClause(e.sel[i][j][p].Not(), v, w[j].Not())
				}
			}
			for m := 0; m < 3; m++ {
				var u [3]sat.Lit
				for j := 0; j < 3; j++ {
					// Inverter bit for (majority m, input j) in the paper's
					// MSB-first layout: bit index 8-3j-m.
					u[j] = b.Xor(w[j], e.cfg[i][8-3*j-m])
				}
				val[base+m][t] = b.Maj(u[0], u[1], u[2])
			}
		}
	}

	// Functional constraints on the primary outputs.
	for k, f := range tables {
		for p := 0; p < numPorts; p++ {
			for t := 0; t < numPat; t++ {
				if f.Get(uint(t)) {
					b.AddClause(e.outSel[k][p].Not(), val[p][t])
				} else {
					b.AddClause(e.outSel[k][p].Not(), val[p][t].Not())
				}
			}
		}
	}

	// Single fanout: every non-constant port drives at most one load.
	e.users = make([][]sat.Lit, numPorts)
	for i := 0; i < r; i++ {
		for j := 0; j < 3; j++ {
			for p := 1; p < len(e.sel[i][j]); p++ {
				e.users[p] = append(e.users[p], e.sel[i][j][p])
			}
		}
	}
	for k := range tables {
		for p := 1; p < numPorts; p++ {
			e.users[p] = append(e.users[p], e.outSel[k][p])
		}
	}
	for p := 1; p < numPorts; p++ {
		b.AtMostOne(e.users[p])
	}

	// Garbage budget over PI ports and gate output ports.
	var garbageLits []sat.Lit
	for p := 1; p < numPorts; p++ {
		unused := b.Lit() // unused ↔ no user selects p
		for _, u := range e.users[p] {
			b.AddClause(unused.Not(), u.Not())
		}
		cl := make([]sat.Lit, 0, len(e.users[p])+1)
		cl = append(cl, e.users[p]...)
		cl = append(cl, unused)
		b.AddClause(cl...)
		garbageLits = append(garbageLits, unused)
	}
	b.AtMostK(garbageLits, opt.garbageBudget)

	if opt.liveGates {
		for i := 0; i < r; i++ {
			base := int(skeleton.GateBase(i))
			var live []sat.Lit
			for m := 0; m < 3; m++ {
				live = append(live, e.users[base+m]...)
			}
			b.AddClause(live...)
		}
	}
	return e
}

// witness extracts the netlist of the solver's current model.
func (e *encoding) witness() (*rqfp.Netlist, error) {
	net := rqfp.NewNetlist(e.n)
	for i := 0; i < e.r; i++ {
		var g rqfp.Gate
		for j := 0; j < 3; j++ {
			found := false
			for p := range e.sel[i][j] {
				if e.b.S.ValueLit(e.sel[i][j][p]) {
					g.In[j] = rqfp.Signal(p)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("exact: model misses selection for gate %d input %d", i, j)
			}
		}
		for k := 0; k < 9; k++ {
			if e.b.S.ValueLit(e.cfg[i][k]) {
				g.Cfg |= 1 << uint(k)
			}
		}
		net.AddGate(g)
	}
	for k := range e.outSel {
		for p := 0; p < e.numPorts; p++ {
			if e.b.S.ValueLit(e.outSel[k][p]) {
				net.POs = append(net.POs, rqfp.Signal(p))
				break
			}
		}
	}
	if len(net.POs) != len(e.outSel) {
		return nil, errors.New("exact: model misses output selection")
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("exact: extracted netlist invalid: %w", err)
	}
	return net, nil
}

// portUsed reports whether the current model routes port p into any load.
func (e *encoding) portUsed(p int) bool {
	for _, u := range e.users[p] {
		if e.b.S.ValueLit(u) {
			return true
		}
	}
	return false
}

// exclude adds a blocking clause forbidding the current model's circuit:
// the clause negates the assignment of every structural decision variable
// (input selections, output selections) plus the inverter bits of the
// majorities whose output ports are actually consumed. Configurations of
// dangling majority outputs are left free, so the enumeration is over
// circuits modulo garbage-port configuration — the quotient the template
// miner wants. Returns false if the formula became unsatisfiable.
func (e *encoding) exclude() bool {
	var cl []sat.Lit
	add := func(l sat.Lit) {
		if e.b.S.ValueLit(l) {
			cl = append(cl, l.Not())
		} else {
			cl = append(cl, l)
		}
	}
	for i := range e.sel {
		for j := 0; j < 3; j++ {
			for _, l := range e.sel[i][j] {
				add(l)
			}
		}
	}
	for k := range e.outSel {
		for _, l := range e.outSel[k] {
			add(l)
		}
	}
	for i := range e.cfg {
		base := int(e.skeleton.GateBase(i))
		for m := 0; m < 3; m++ {
			if !e.portUsed(base + m) {
				continue
			}
			for j := 0; j < 3; j++ {
				add(e.cfg[i][8-3*j-m])
			}
		}
	}
	return e.b.AddClause(cl...)
}
