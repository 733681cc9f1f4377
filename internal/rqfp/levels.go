package rqfp

// levelsFor assigns a clock level to every active gate so that path
// balancing costs (buffer insertions) are low. Primary inputs sit at level
// 0; a gate must sit strictly above all of its non-constant sources; the
// constant source is available at any level for free. Starting from ASAP
// levels, gates are greedily pulled upwards while that reduces the total
// phase gap (the classic slack-redistribution heuristic for AQFP buffer
// insertion). The returned slice has -1 for inactive gates.
func (n *Netlist) levelsFor(active []bool) []int {
	level := make([]int, len(n.Gates))
	for g := range level {
		level[g] = -1
	}
	// Level of a source signal under the current assignment.
	srcLevel := func(s Signal) (int, bool) {
		if s == ConstPort {
			return 0, false // unconstrained
		}
		if n.IsPI(s) {
			return 0, true
		}
		g, _, _ := n.PortOwner(s)
		return level[g], true
	}
	// ASAP.
	for g := range n.Gates {
		if !active[g] {
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
	// Consumer table among active gates and POs.
	consumers := make(map[Signal][]*int)
	for g := range n.Gates {
		if !active[g] {
			continue
		}
		for _, in := range n.Gates[g].In {
			if in == ConstPort {
				continue
			}
			consumers[in] = append(consumers[in], &level[g])
		}
	}
	// Greedy upward relaxation: moving a gate up by one adds one buffer per
	// constrained input edge and removes one per consumer edge with slack.
	changed := true
	for iter := 0; iter < 64 && changed; iter++ {
		changed = false
		for g := len(n.Gates) - 1; g >= 0; g-- {
			if !active[g] {
				continue
			}
			// Upper bound: one below the shallowest consumer of any port.
			hi := 1 << 30
			isPOSource := false
			for m := 0; m < 3; m++ {
				for _, cl := range consumers[n.Port(g, m)] {
					if *cl-1 < hi {
						hi = *cl - 1
					}
				}
			}
			for _, po := range n.POs {
				if own, _, ok := n.PortOwner(po); ok && own == g {
					isPOSource = true
				}
			}
			if isPOSource || hi == 1<<30 {
				// PO drivers are aligned to the output stage anyway; moving
				// them up just shifts buffers around, so leave them put.
				continue
			}
			if hi <= level[g] {
				continue
			}
			// Cost delta of moving up one level.
			inEdges := 0
			for _, in := range n.Gates[g].In {
				if in != ConstPort {
					inEdges++
				}
			}
			outEdges := 0
			for m := 0; m < 3; m++ {
				outEdges += len(consumers[n.Port(g, m)])
			}
			if outEdges > inEdges {
				level[g] = hi
				changed = true
			}
		}
	}
	return level
}

// DepthAndBuffers computes the circuit depth n_d (the output clock stage)
// and the number of RQFP buffers n_b required for path balancing, including
// the alignment of all primary outputs to a common stage as the paper's
// experimental setup prescribes.
func (n *Netlist) DepthAndBuffers() (depth, buffers int) {
	active := n.ActiveGates()
	level := n.levelsFor(active)

	depth = 0
	for g := range n.Gates {
		if active[g] && level[g] > depth {
			depth = level[g]
		}
	}
	// Primary outputs fed directly by PIs or the constant still have to
	// reach the output stage.
	outStage := depth

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
			continue
		}
		for _, in := range n.Gates[g].In {
			if l, constrained := srcLevel(in); constrained {
				buffers += level[g] - 1 - l
			}
		}
	}
	for _, po := range n.POs {
		if l, constrained := srcLevel(po); constrained {
			buffers += outStage - l
		}
	}
	return depth, buffers
}

// Stats aggregates the paper's cost metrics for a netlist.
type Stats struct {
	PIs     int // n_pi
	POs     int // n_po
	Gates   int // n_r  — active RQFP logic gates
	Buffers int // n_b  — RQFP buffers for path balancing
	JJs     int // Josephson junction count: 24·n_r + 4·n_b
	Depth   int // n_d  — gate levels to the output stage
	Garbage int // n_g  — dangling active outputs (+ unread PIs)
}

// ComputeStats evaluates all cost metrics of the netlist.
func (n *Netlist) ComputeStats() Stats {
	depth, buffers := n.DepthAndBuffers()
	gates := n.NumActive()
	return Stats{
		PIs:     n.NumPI,
		POs:     len(n.POs),
		Gates:   gates,
		Buffers: buffers,
		JJs:     JJsPerGate*gates + JJsPerBuffer*buffers,
		Depth:   depth,
		Garbage: n.Garbage(),
	}
}

// GarbageLowerBound is the paper's g_lb = max(0, n_pi − n_po).
func GarbageLowerBound(numPI, numPO int) int {
	if numPI > numPO {
		return numPI - numPO
	}
	return 0
}
