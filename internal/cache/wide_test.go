package cache

import (
	"strings"
	"testing"

	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// wideNetlist builds an 11-input MAJ cascade — wide enough that Store
// verification must go through the SAT miter, not the 2^n sweep.
func wideNetlist() *rqfp.Netlist {
	n := rqfp.NewNetlist(11)
	acc := n.PIPort(0)
	for i := 1; i+1 < 11; i += 2 {
		g := n.AddGate(rqfp.Gate{In: [3]rqfp.Signal{acc, n.PIPort(i), n.PIPort(i + 1)}})
		acc = n.Port(g, 0)
	}
	n.POs = []rqfp.Signal{acc}
	return n
}

// TestCacheWideKeyVerify covers the >VerifyExhaustiveMaxPIs Store path: a
// correct 11-input netlist is proven and persisted by the SAT miter, while
// a wrong netlist for the same tables is refuted and never stored.
func TestCacheWideKeyVerify(t *testing.T) {
	net := wideNetlist()
	tables := tablesOf(net)
	c := NewMemory(8)
	key, err := c.Store(tables, net)
	if err != nil {
		t.Fatalf("store of a correct wide netlist failed: %v", err)
	}
	if !strings.HasPrefix(key, "xct:11:") {
		t.Fatalf("unexpected wide key %q", key)
	}
	got, _, ok := c.Lookup(tables)
	if !ok {
		t.Fatal("stored wide entry not found")
	}
	for x := uint(0); x < 64; x++ {
		if got.EvalBool(x)[0] != net.EvalBool(x)[0] {
			t.Fatalf("round-tripped netlist diverges at %d", x)
		}
	}

	// A netlist computing a different function must be refuted and kept
	// out of the log.
	wrong := net.Clone()
	wrong.POs[0] = rqfp.ConstPort
	if _, err := c.Store(tables, wrong); err == nil {
		t.Fatal("wrong wide netlist was stored")
	}
}
