package rqfp

import (
	"github.com/reversible-eda/rcgp/internal/bits"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// SimContext holds reusable simulation storage so the CGP inner loop can
// evaluate thousands of offspring without allocating. Port vectors live in
// one flat structure-of-arrays arena — port p owns arena[p*words:(p+1)*words]
// — so a whole context is a single allocation, ascending-port simulation
// sweeps walk memory linearly, and growing to a larger netlist re-arenas
// once instead of allocating per port. Port 0 is all-ones (constant 1).
type SimContext struct {
	words    int
	numPorts int
	arena    []uint64

	// stimID/stimGen identify the stimulus currently resident in the PI
	// port vectors (see RunTagged). Zero means untagged: the next run
	// copies the PI vectors unconditionally.
	stimID, stimGen uint64

	// runs counts the simulations run in this context, so a DeltaSim can
	// tell when its packed copy of the port vectors went stale.
	runs uint64
}

// NewSimContext allocates storage for a netlist with up to maxPorts ports
// and the given stimulus width in words.
func NewSimContext(maxPorts, words int) *SimContext {
	ctx := &SimContext{words: words}
	ctx.grow(maxPorts)
	ctx.Port(ConstPort).Fill(^uint64(0))
	return ctx
}

// grow re-arenas the port storage for at least numPorts ports, preserving
// existing vector contents. Existing bits.Vec handles into the old arena
// stay readable but are detached; callers must re-fetch via Port.
func (ctx *SimContext) grow(numPorts int) {
	if numPorts <= ctx.numPorts {
		return
	}
	if numPorts < 1 {
		numPorts = 1
	}
	arena := make([]uint64, numPorts*ctx.words)
	copy(arena, ctx.arena)
	ctx.arena, ctx.numPorts = arena, numPorts
}

// Words returns the stimulus width.
func (ctx *SimContext) Words() int { return ctx.words }

// Port returns the simulated vector of a signal after Run.
func (ctx *SimContext) Port(s Signal) bits.Vec {
	w := ctx.words
	return bits.Vec(ctx.arena[int(s)*w : int(s+1)*w : int(s+1)*w])
}

// Run simulates the netlist on the given per-PI stimulus. If active is
// non-nil, inactive gates are skipped (their port vectors are stale). The
// port vectors live in the context; output vectors can be read via Port.
func (ctx *SimContext) Run(n *Netlist, inputs []bits.Vec, active []bool) {
	ctx.RunTagged(n, inputs, active, 0, 0)
}

// RunTagged is Run with a stimulus identity: (stimID, stimGen) name the
// stimulus revision held in inputs (e.g. a cec.Spec's unique id and its
// counterexample-widening generation). When the context already holds that
// exact revision in its PI port vectors, the per-PI copies — a fixed cost
// paid on every offspring evaluation — are skipped. A zero stimID disables
// the optimization and clears the tag, so plain Run never reuses vectors
// left by a different caller.
func (ctx *SimContext) RunTagged(n *Netlist, inputs []bits.Vec, active []bool, stimID, stimGen uint64) {
	if len(inputs) != n.NumPI {
		panic("rqfp: wrong number of input vectors")
	}
	ctx.grow(n.NumPorts())
	ctx.runs++
	if stimID == 0 || ctx.stimID != stimID || ctx.stimGen != stimGen {
		for i, in := range inputs {
			copy(ctx.Port(n.PIPort(i)), in)
		}
		ctx.stimID, ctx.stimGen = stimID, stimGen
	}
	for g := range n.Gates {
		if active != nil && !active[g] {
			continue
		}
		gate := &n.Gates[g]
		v0 := ctx.Port(gate.In[0])
		v1 := ctx.Port(gate.In[1])
		v2 := ctx.Port(gate.In[2])
		base := n.GateBase(g)
		for m := 0; m < 3; m++ {
			x0, x1, x2 := gate.Cfg.InvMasks(m)
			bits.MajInv(ctx.Port(base+Signal(m)), v0, v1, v2, x0, x1, x2)
		}
	}
}

// Simulate evaluates the netlist and returns one vector per primary output.
func (n *Netlist) Simulate(inputs []bits.Vec) []bits.Vec {
	words := 1
	if len(inputs) > 0 {
		words = len(inputs[0])
	}
	ctx := NewSimContext(n.NumPorts(), words)
	ctx.Run(n, inputs, nil)
	outs := make([]bits.Vec, len(n.POs))
	for i, po := range n.POs {
		outs[i] = ctx.Port(po).Clone()
	}
	return outs
}

// TruthTables collapses every primary output over all primary inputs.
func (n *Netlist) TruthTables() []tt.TT {
	ins := bits.ExhaustiveInputs(n.NumPI)
	outs := n.Simulate(ins)
	size := 1 << uint(n.NumPI)
	res := make([]tt.TT, len(outs))
	for i, o := range outs {
		o.MaskTail(size)
		res[i] = tt.TT{N: n.NumPI, Bits: o}
	}
	return res
}

// evalStackPorts is the port count up to which EvalBool keeps its port
// values on the stack, one bit per port.
const evalStackPorts = 1 << 16

// EvalBool evaluates the netlist on a single concrete input assignment
// (bit i of `assignment` = primary input i). Reference semantics for tests.
// Up to evalStackPorts ports it allocates only its result, so callers that
// sweep many assignments produce no other garbage.
func (n *Netlist) EvalBool(assignment uint) []bool {
	var stack [evalStackPorts / 64]uint64
	var vals []uint64
	if words := (n.NumPorts() + 63) / 64; words <= len(stack) {
		vals = stack[:words]
	} else {
		vals = make([]uint64, words)
	}
	get := func(s Signal) uint64 { return vals[s>>6] >> (s & 63) & 1 }
	set := func(s Signal, v uint64) { vals[s>>6] |= v << (s & 63) }
	set(ConstPort, 1)
	for i := 0; i < n.NumPI; i++ {
		set(n.PIPort(i), uint64(assignment>>uint(i)&1))
	}
	for g := range n.Gates {
		gate := &n.Gates[g]
		a, b, c := get(gate.In[0]), get(gate.In[1]), get(gate.In[2])
		for m := 0; m < 3; m++ {
			x0, x1, x2 := gate.Cfg.InvMasks(m)
			x, y, z := a^x0&1, b^x1&1, c^x2&1
			set(n.Port(g, m), x&y|x&z|y&z)
		}
	}
	outs := make([]bool, len(n.POs))
	for i, po := range n.POs {
		outs[i] = get(po) == 1
	}
	return outs
}
