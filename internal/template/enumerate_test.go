package template

import (
	"testing"

	"github.com/reversible-eda/rcgp/internal/exact"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/window"
)

// bruteIdentityCircuits structurally enumerates every valid single-gate
// netlist on n lines that computes the n-line identity: each gate input
// reads the constant or a distinct PI, all 512 inverter configurations, and
// each PO reads a distinct unconsumed port. This is the ground truth the
// SAT enumeration must cover.
func bruteIdentityCircuits(n int, visit func(*rqfp.Netlist)) int {
	skeleton := rqfp.NewNetlist(n)
	skeleton.AddGate(rqfp.Gate{})
	srcs := []rqfp.Signal{rqfp.ConstPort}
	for i := 0; i < n; i++ {
		srcs = append(srcs, skeleton.PIPort(i))
	}
	distinct := func(a, b rqfp.Signal) bool {
		return a == rqfp.ConstPort || b == rqfp.ConstPort || a != b
	}
	identity := func(net *rqfp.Netlist) bool {
		for x := uint(0); x < 1<<uint(n); x++ {
			got := net.EvalBool(x)
			for k := 0; k < n; k++ {
				if got[k] != (x>>uint(k)&1 == 1) {
					return false
				}
			}
		}
		return true
	}
	count := 0
	for _, in0 := range srcs {
		for _, in1 := range srcs {
			if !distinct(in0, in1) {
				continue
			}
			for _, in2 := range srcs {
				if !distinct(in0, in2) || !distinct(in1, in2) {
					continue
				}
				for cfg := 0; cfg < rqfp.NumConfigs; cfg++ {
					proto := rqfp.NewNetlist(n)
					proto.AddGate(rqfp.Gate{In: [3]rqfp.Signal{in0, in1, in2}, Cfg: rqfp.Config(cfg)})
					// Every assignment of the n POs to distinct ports; the
					// gate must drive at least one (the enumeration's
					// live-gate rule), and Validate rejects double fanout.
					ports := []rqfp.Signal{proto.Port(0, 0), proto.Port(0, 1), proto.Port(0, 2)}
					for i := 0; i < n; i++ {
						ports = append(ports, proto.PIPort(i))
					}
					var assign func(po int, used map[rqfp.Signal]bool, pos []rqfp.Signal)
					assign = func(po int, used map[rqfp.Signal]bool, pos []rqfp.Signal) {
						if po == n {
							gateLive := false
							for _, p := range pos {
								if !proto.IsPI(p) && p != rqfp.ConstPort {
									gateLive = true
								}
							}
							if !gateLive {
								return
							}
							net := proto.Clone()
							net.POs = append([]rqfp.Signal(nil), pos...)
							if net.Validate() != nil || !identity(net) {
								return
							}
							count++
							visit(net)
							return
						}
						for _, p := range ports {
							if used[p] {
								continue
							}
							used[p] = true
							assign(po+1, used, append(pos, p))
							used[p] = false
						}
					}
					assign(0, map[rqfp.Signal]bool{}, nil)
				}
			}
		}
	}
	return count
}

// TestBuildCoversBruteForceIdentities is the completeness cross-check of
// the SAT identity enumeration: a library built from the exhaustive
// single-gate strata alone (no single-gate closure, no model-count cap)
// must hold a template for every window cut of every structurally
// enumerated single-gate identity circuit on up to 3 lines. A circuit the
// unroll-exclude loop missed would surface here as an uncovered class.
func TestBuildCoversBruteForceIdentities(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT enumeration in -short mode")
	}
	lib, rep, err := Build(BuildOptions{Lines: 3, MaxGates: 1, MaxCircuits: 0, SkipSingleGateSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CappedStrata) != 0 {
		t.Fatalf("exhaustive build reports capped strata: %v", rep.CappedStrata)
	}
	if rep.IdentityCircuits == 0 || lib.Len() == 0 {
		t.Fatalf("degenerate build: %+v", rep)
	}

	for n := 1; n <= 3; n++ {
		brute := 0
		uncovered := 0
		total := bruteIdentityCircuits(n, func(net *rqfp.Netlist) {
			brute++
			for lo := 0; lo < len(net.Gates); lo++ {
				for hi := lo + 1; hi <= len(net.Gates); hi++ {
					ext := window.BuildInterface(net, lo, hi)
					if len(ext.Inputs) < 1 || len(ext.Inputs) > MaxInputs || len(ext.Outputs) < 1 {
						continue
					}
					sub := window.Extract(net, ext)
					if _, _, ok := lib.Match(sub.TruthTables()); !ok {
						uncovered++
					}
				}
			}
		})
		if total == 0 {
			t.Fatalf("n=%d: brute force found no identity circuits", n)
		}
		if uncovered != 0 {
			t.Fatalf("n=%d: %d window cuts of %d brute-force identity circuits have no template — the SAT enumeration is incomplete",
				n, uncovered, total)
		}
		t.Logf("n=%d: %d brute-force identity circuits, all cuts covered", n, brute)
	}

	// The 1-line identity class must be present — an identity window is the
	// template pass's best case (it deletes the window outright). Wider
	// identities cannot arise from single-gate cuts: a gate's outputs all
	// share one majority function, so one gate passes at most one line
	// through (multi-line identity circuits route the other lines around
	// the window, outside its interface).
	if _, _, ok := lib.Match(exact.IdentityTables(1)); !ok {
		t.Fatal("1-line identity class missing from the library")
	}
}

// TestBuildDeterministic pins the generation contract the shipped starter
// relies on: same options, same library, bit for bit.
func TestBuildDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT enumeration in -short mode")
	}
	opt := BuildOptions{Lines: 2, MaxGates: 1, MaxCircuits: 200}
	a, _, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	da, db := a.Dump(), b.Dump()
	if len(da) != len(db) {
		t.Fatalf("lengths differ: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("entry %d differs between identical builds", i)
		}
	}
}
