package aig

// RefactorGlobalMaxPIs bounds the collapse-based global refactoring; above
// this input count the pass is skipped (the cut-based Rewrite still runs).
const RefactorGlobalMaxPIs = 14

// RefactorGlobal collapses every output to its truth table over the
// primary inputs and resynthesizes the whole network from ISOP covers,
// keeping whichever of the original and the rebuilt network has fewer AND
// nodes. It is exact-function-preserving and very effective on the small
// and medium circuits the RCGP evaluation uses; larger networks are
// returned unchanged (after cleanup).
func (a *AIG) RefactorGlobal() *AIG {
	clean := a.Cleanup()
	if a.nPI > RefactorGlobalMaxPIs || a.NumPOs() == 0 {
		return clean
	}
	tables := clean.TruthTables()
	rebuilt := FromTruthTables(tables)
	rebuilt.InputNames = a.InputNames
	rebuilt.OutputNames = a.OutputNames
	if rebuilt.NumAnds() < clean.NumAnds() {
		return rebuilt
	}
	return clean
}
