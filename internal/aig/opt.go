package aig

// Effort selects how hard Optimize works.
type Effort int

// Optimization effort levels.
const (
	EffortFast Effort = iota // one balance + rewrite round
	EffortStd                // the "resyn2"-like script
	EffortHigh               // resyn2-like script iterated to a fixpoint
)

// Optimize runs a synthesis script modeled on ABC's "resyn2": interleaved
// balancing, cut rewriting, global refactoring, and equivalence sweeping.
// After every pass the smaller of the old and new network is kept, so the
// result never regresses in AND count. Function is preserved exactly.
func (a *AIG) Optimize(effort Effort) *AIG {
	best := a.Cleanup()
	covers := coverMemo{} // shared by every Rewrite of this call
	keepSmaller := func(cand *AIG) {
		if cand.NumAnds() < best.NumAnds() ||
			(cand.NumAnds() == best.NumAnds() && cand.Depth() < best.Depth()) {
			best = cand
		}
	}
	round := func() {
		keepSmaller(best.Balance())
		keepSmaller(best.rewrite(covers))
		if effort >= EffortStd {
			keepSmaller(best.Sweep())
			keepSmaller(best.RefactorGlobal())
			keepSmaller(best.Balance())
			keepSmaller(best.rewrite(covers))
		}
	}
	round()
	if effort >= EffortHigh {
		for i := 0; i < 4; i++ {
			before := best.NumAnds()
			round()
			if best.NumAnds() >= before {
				break
			}
		}
	}
	return best
}
