package rqfp

import (
	"fmt"
	"strings"
)

// Signal is a port index in the paper's CGP numbering: 0 is the constant 1,
// 1..NumPI are the primary inputs, and gate g (0-based) owns the three
// consecutive ports NumPI+1+3g .. NumPI+3+3g.
type Signal int32

// Gate is one RQFP logic gate: three input connections and the 9-bit
// inverter configuration selecting its three output functions.
type Gate struct {
	In  [3]Signal
	Cfg Config
}

// Netlist is an RQFP logic circuit before buffer insertion. Gates are kept
// in topological order: gate g may only read ports with index below its own
// port base. The same structure doubles as the CGP genotype (§3.2.1 of the
// paper): the integer genes are exactly In[0..2], Cfg per gate plus the PO
// signals.
type Netlist struct {
	NumPI int
	Gates []Gate
	POs   []Signal
}

// NewNetlist returns an empty netlist with the given interface sizes.
func NewNetlist(numPI int) *Netlist {
	return &Netlist{NumPI: numPI}
}

// ConstPort is the signal index of the constant-1 source; it is exempt
// from the single-fanout rule (every use is its own physical source).
const ConstPort Signal = 0

// NumPorts returns the total number of port indices (constant + PIs + gate
// outputs).
func (n *Netlist) NumPorts() int { return 1 + n.NumPI + 3*len(n.Gates) }

// GateBase returns the first port index owned by gate g.
func (n *Netlist) GateBase(g int) Signal { return Signal(1 + n.NumPI + 3*g) }

// Port returns the signal index of output `maj` of gate g.
func (n *Netlist) Port(g, maj int) Signal { return n.GateBase(g) + Signal(maj) }

// PortOwner resolves a signal to its owning gate and output index;
// ok is false for the constant and primary inputs.
func (n *Netlist) PortOwner(s Signal) (gate, maj int, ok bool) {
	if s <= Signal(n.NumPI) {
		return 0, 0, false
	}
	off := int(s) - n.NumPI - 1
	return off / 3, off % 3, true
}

// IsPI reports whether the signal is a primary input port.
func (n *Netlist) IsPI(s Signal) bool { return s >= 1 && s <= Signal(n.NumPI) }

// PIPort returns the signal of primary input i (0-based).
func (n *Netlist) PIPort(i int) Signal { return Signal(1 + i) }

// AddGate appends a gate and returns its index.
func (n *Netlist) AddGate(g Gate) int {
	n.Gates = append(n.Gates, g)
	return len(n.Gates) - 1
}

// Clone returns a deep copy.
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{NumPI: n.NumPI}
	c.Gates = append([]Gate(nil), n.Gates...)
	c.POs = append([]Signal(nil), n.POs...)
	return c
}

// Fingerprint returns a structural hash of the netlist (FNV-1a over the
// interface size, the gate genes, and the PO signals). The flow compares
// fingerprints around each stage to decide whether the netlist was
// mutated — including in-place edits that keep the pointer stable — and
// therefore needs re-verification against the specification oracle.
func (n *Netlist) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(n.NumPI))
	for _, g := range n.Gates {
		mix(uint64(g.In[0]))
		mix(uint64(g.In[1]))
		mix(uint64(g.In[2]))
		mix(uint64(g.Cfg))
	}
	mix(uint64(len(n.Gates)))
	for _, po := range n.POs {
		mix(uint64(po))
	}
	return h
}

// Validate checks the structural invariants of RQFP logic: signal ranges,
// topological ordering (a gate reads only earlier ports), and the
// single-fanout rule (every non-constant port drives at most one load
// among gate inputs and primary outputs).
func (n *Netlist) Validate() error {
	uses := make([]int8, n.NumPorts())
	for g, gate := range n.Gates {
		base := n.GateBase(g)
		for j, in := range gate.In {
			if in < 0 || int(in) >= n.NumPorts() {
				return fmt.Errorf("rqfp: gate %d input %d references invalid port %d", g, j, in)
			}
			if in >= base {
				return fmt.Errorf("rqfp: gate %d input %d references port %d ≥ its own base %d (not topological)", g, j, in, base)
			}
			if gate.Cfg >= NumConfigs {
				return fmt.Errorf("rqfp: gate %d has out-of-range config %d", g, gate.Cfg)
			}
			if in != ConstPort {
				uses[in]++
			}
		}
	}
	for i, po := range n.POs {
		if po < 0 || int(po) >= n.NumPorts() {
			return fmt.Errorf("rqfp: PO %d references invalid port %d", i, po)
		}
		if po != ConstPort {
			uses[po]++
		}
	}
	for s, u := range uses {
		if u > 1 {
			return fmt.Errorf("rqfp: port %d drives %d loads (single-fanout violated)", s, u)
		}
	}
	return nil
}

// UseCounts returns, for every port, how many loads it drives (gate inputs
// plus primary outputs). The constant port accumulates counts too but is
// exempt from fanout checking.
func (n *Netlist) UseCounts() []int {
	uses := make([]int, n.NumPorts())
	for _, gate := range n.Gates {
		for _, in := range gate.In {
			uses[in]++
		}
	}
	for _, po := range n.POs {
		uses[po]++
	}
	return uses
}

// PortUser identifies the single load of a port: either a gate input
// (Gate, Input) or a primary output (PO), discriminated by Kind. The CGP
// swap mutation maintains a table of these, one per port, and copies it
// into every offspring, so the fields are packed into 12 bytes.
type PortUser struct {
	Kind  UserKind
	Input uint8 // valid for UserGateInput
	Gate  int32 // valid for UserGateInput
	PO    int32 // valid for UserPO
}

// UserKind discriminates PortUser.
type UserKind uint8

// Port user kinds.
const (
	UserNone UserKind = iota
	UserGateInput
	UserPO
)

// Users builds the full port→user table (assuming single fanout holds; the
// last writer wins otherwise).
func (n *Netlist) Users() []PortUser {
	users := make([]PortUser, n.NumPorts())
	for g := range n.Gates {
		for j, in := range n.Gates[g].In {
			if in != ConstPort {
				users[in] = PortUser{Kind: UserGateInput, Gate: int32(g), Input: uint8(j)}
			}
		}
	}
	for i, po := range n.POs {
		if po != ConstPort {
			users[po] = PortUser{Kind: UserPO, PO: int32(i)}
		}
	}
	return users
}

// ActiveGates marks the gates whose outputs transitively reach a primary
// output. Inactive gates are "useless nodes" in CGP terms: present in the
// genotype, absent from the phenotype.
func (n *Netlist) ActiveGates() []bool {
	active := make([]bool, len(n.Gates))
	var visit func(s Signal)
	visit = func(s Signal) {
		g, _, ok := n.PortOwner(s)
		if !ok || active[g] {
			return
		}
		active[g] = true
		for _, in := range n.Gates[g].In {
			visit(in)
		}
	}
	for _, po := range n.POs {
		visit(po)
	}
	return active
}

// NumActive returns the number of active gates (n_r in the paper).
func (n *Netlist) NumActive() int {
	count := 0
	for _, a := range n.ActiveGates() {
		if a {
			count++
		}
	}
	return count
}

// Shrink removes inactive gates and compacts port indices, reducing the
// genotype length as in §3.2.3 of the paper. The phenotype (function) is
// unchanged.
func (n *Netlist) Shrink() *Netlist {
	active := n.ActiveGates()
	remap := make([]Signal, n.NumPorts())
	for s := Signal(0); s <= Signal(n.NumPI); s++ {
		remap[s] = s
	}
	out := NewNetlist(n.NumPI)
	for g, gate := range n.Gates {
		if !active[g] {
			continue
		}
		ng := Gate{Cfg: gate.Cfg}
		for j, in := range gate.In {
			ng.In[j] = remap[in]
		}
		idx := out.AddGate(ng)
		for m := 0; m < 3; m++ {
			remap[n.Port(g, m)] = out.Port(idx, m)
		}
	}
	out.POs = make([]Signal, len(n.POs))
	for i, po := range n.POs {
		out.POs[i] = remap[po]
	}
	return out
}

// Garbage returns the number of garbage outputs (n_g): output ports of
// active gates that drive nothing, plus primary inputs that are never read.
// Inactive gates do not count — they are removed from the phenotype.
func (n *Netlist) Garbage() int {
	active := n.ActiveGates()
	uses := make([]bool, n.NumPorts())
	for g, gate := range n.Gates {
		if !active[g] {
			continue
		}
		for _, in := range gate.In {
			uses[in] = true
		}
	}
	for _, po := range n.POs {
		uses[po] = true
	}
	garbage := 0
	for i := 0; i < n.NumPI; i++ {
		if !uses[n.PIPort(i)] {
			garbage++
		}
	}
	for g := range n.Gates {
		if !active[g] {
			continue
		}
		for m := 0; m < 3; m++ {
			if !uses[n.Port(g, m)] {
				garbage++
			}
		}
	}
	return garbage
}

// String renders the netlist in the paper's chromosome notation, e.g.
//
//	(1, 2, 0, 100-010-001)(5, 4, 0, 101-100-000)...(6, 10, 13, 14)
func (n *Netlist) String() string {
	var sb strings.Builder
	for _, g := range n.Gates {
		fmt.Fprintf(&sb, "(%d, %d, %d, %s)", g.In[0], g.In[1], g.In[2], g.Cfg)
	}
	sb.WriteString("(")
	for i, po := range n.POs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", po)
	}
	sb.WriteString(")")
	return sb.String()
}
