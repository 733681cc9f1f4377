package rqfp

// CostEvaluator computes the CGP fitness metrics (active gates, garbage,
// depth, buffers) with reusable scratch storage, so the evolutionary inner
// loop performs no per-offspring allocations. The single-fanout invariant
// is exploited throughout: every port has at most one consumer.
type CostEvaluator struct {
	active   []bool
	used     []bool
	level    []int
	consumer []int32 // per port: consuming gate, -1 none, -2 primary output
	stack    []int32
}

// Active returns the active-gate mask of the last Eval call; valid until
// the next call.
func (ce *CostEvaluator) Active() []bool { return ce.active }

// Costs bundles the fitness metrics.
type Costs struct {
	Gates   int
	Garbage int
	Depth   int
	Buffers int
}

const (
	consumerNone = -1
	consumerPO   = -2
)

// ActiveOnly computes just the active-gate mask — the reachability prefix
// of Eval — for callers that need reachability but not the cost metrics
// (the incremental checker needs an offspring's mask only for the
// parent-relative proof). Topological gate order turns the DFS into one
// cache-friendly descending sweep: a gate's consumers all sit above it, so
// by the time the sweep reaches a gate its activity is already settled. Shares Eval's
// scratch: the returned mask is valid until the next ActiveOnly or Eval
// call.
func (ce *CostEvaluator) ActiveOnly(n *Netlist) []bool {
	numGates := len(n.Gates)
	firstGatePort := Signal(1 + n.NumPI)
	ce.active = grow(ce.active, numGates)
	active := ce.active[:numGates]
	for i := range active {
		active[i] = false
	}
	for _, po := range n.POs {
		if po >= firstGatePort {
			active[int(po-firstGatePort)/3] = true
		}
	}
	for g := numGates - 1; g >= 0; g-- {
		if !active[g] {
			continue
		}
		for _, in := range n.Gates[g].In {
			if in >= firstGatePort {
				active[int(in-firstGatePort)/3] = true
			}
		}
	}
	return active
}

// Eval computes all metrics for the netlist.
func (ce *CostEvaluator) Eval(n *Netlist) Costs {
	numGates := len(n.Gates)
	numPorts := n.NumPorts()
	active := ce.ActiveOnly(n)
	ce.level = growInt(ce.level, numGates)
	ce.used = grow(ce.used, numPorts)
	ce.consumer = growInt32(ce.consumer, numPorts)

	var c Costs
	for g := range active {
		if active[g] {
			c.Gates++
		}
	}

	// Usage and single consumer per port (active loads only).
	used := ce.used[:numPorts]
	consumer := ce.consumer[:numPorts]
	for i := range used {
		used[i] = false
		consumer[i] = consumerNone
	}
	for g := range n.Gates {
		if !active[g] {
			continue
		}
		for _, in := range n.Gates[g].In {
			used[in] = true
			consumer[in] = int32(g)
		}
	}
	for _, po := range n.POs {
		used[po] = true
		consumer[po] = consumerPO
	}

	// Garbage: dangling active ports plus unread PIs.
	for i := 0; i < n.NumPI; i++ {
		if !used[n.PIPort(i)] {
			c.Garbage++
		}
	}
	for g := range n.Gates {
		if !active[g] {
			continue
		}
		base := int(n.GateBase(g))
		for m := 0; m < 3; m++ {
			if !used[base+m] {
				c.Garbage++
			}
		}
	}

	// ASAP levels.
	level := ce.level[:numGates]
	srcLevel := func(s Signal) (int, bool) {
		if s == ConstPort {
			return 0, false
		}
		if n.IsPI(s) {
			return 0, true
		}
		g, _, _ := n.PortOwner(s)
		return level[g], true
	}
	for g := range n.Gates {
		if !active[g] {
			level[g] = -1
			continue
		}
		mx := 0
		for _, in := range n.Gates[g].In {
			if l, constrained := srcLevel(in); constrained && l >= mx {
				mx = l
			}
		}
		level[g] = mx + 1
	}
	// Slack relaxation: pull gates towards their single consumers.
	for iter := 0; iter < 64; iter++ {
		changed := false
		for g := numGates - 1; g >= 0; g-- {
			if !active[g] {
				continue
			}
			base := int(n.GateBase(g))
			hi := 1 << 30
			feedsPO := false
			outEdges := 0
			for m := 0; m < 3; m++ {
				switch cons := consumer[base+m]; cons {
				case consumerNone:
				case consumerPO:
					feedsPO = true
				default:
					outEdges++
					if l := level[cons] - 1; l < hi {
						hi = l
					}
				}
			}
			if feedsPO || hi == 1<<30 || hi <= level[g] {
				continue
			}
			inEdges := 0
			for _, in := range n.Gates[g].In {
				if in != ConstPort {
					inEdges++
				}
			}
			if outEdges > inEdges {
				level[g] = hi
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for g := range n.Gates {
		if active[g] && level[g] > c.Depth {
			c.Depth = level[g]
		}
	}
	for g := range n.Gates {
		if !active[g] {
			continue
		}
		for _, in := range n.Gates[g].In {
			if l, constrained := srcLevel(in); constrained {
				c.Buffers += level[g] - 1 - l
			}
		}
	}
	for _, po := range n.POs {
		if l, constrained := srcLevel(po); constrained {
			c.Buffers += c.Depth - l
		}
	}
	return c
}

func grow(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
