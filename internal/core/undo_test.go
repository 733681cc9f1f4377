package core

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// drawKinds counts point mutations by their effect on the chromosome.
type drawKinds struct{ noop, single, swap, steal int }

// draw applies one mutateOnce to g and classifies it by the genes it
// recorded, read against prev: g as it was before the draw, which draw
// then brings up to date. A no-op draw must record nothing.
func (k *drawKinds) draw(t *testing.T, g, prev *genotype, r *rand.Rand) {
	t.Helper()
	ng, np, nu := len(g.dirtyGates), len(g.dirtyPOs), len(g.dirtyUsers)
	applied := g.mutateOnce(r)
	gates, pos, users := g.dirtyGates[ng:], g.dirtyPOs[np:], g.dirtyUsers[nu:]
	switch {
	case !applied:
		if len(gates)+len(pos)+len(users) != 0 {
			t.Fatalf("a no-op draw recorded gates %v, POs %v, users %v", gates, pos, users)
		}
		k.noop++
	case len(gates)+len(pos) == 1:
		k.single++
	case len(pos) == 1 && len(gates) == 1 && prev.net.POs[pos[0]] != rqfp.ConstPort &&
		movedToConst(prev.net.Gates[gates[0]], g.net.Gates[gates[0]]):
		// The output took a port whose gate user could not take the
		// output's old port, so that user fell back to the constant.
		k.steal++
	default:
		k.swap++
	}
	for _, i := range gates {
		prev.net.Gates[i] = g.net.Gates[i]
	}
	for _, i := range pos {
		prev.net.POs[i] = g.net.POs[i]
	}
	for _, s := range users {
		prev.users[s] = g.users[s]
	}
}

// movedToConst reports whether an input of gate a moved to the constant in b.
func movedToConst(a, b rqfp.Gate) bool {
	for j := range a.In {
		if a.In[j] != b.In[j] && b.In[j] == rqfp.ConstPort {
			return true
		}
	}
	return false
}

// TestUndoRestoresParent is the property the offspring slots rely on:
// after any sequence of point mutations, undo restores the gates, the
// primary outputs and the port-user table of the genotype it was copied
// from, entry for entry, and leaves no recorded change behind. The draws
// run at mutation rates from 0.002 to 1 on small circuits and on one of
// hwb8's size, and must include swaps, output steals and no-op draws.
func TestUndoRestoresParent(t *testing.T) {
	sum := tt.FromFunc(3, func(s uint) bool { return (s&1+s>>1&1+s>>2&1)%2 == 1 })
	r := rand.New(rand.NewSource(8))
	wide := make([]tt.TT, 8)
	for i := range wide {
		wide[i] = tt.New(8)
		wide[i].Bits.Randomize(r)
	}
	for _, c := range []struct {
		label     string
		tables    []tt.TT
		offspring int
	}{
		{"decoder", decoderTables(), 2000},
		{"full_adder_sum", []tt.TT{sum}, 2000},
		{"random_8x8", wide, 150},
	} {
		_, n := buildCase(c.tables)
		parent := newGenotype(n)
		child, prev := parent.clone(), parent.clone()
		var kinds drawKinds
		for off := 0; off < c.offspring; off++ {
			rate := []float64{0.002, 0.05, 1}[off%3]
			maxM := max(int(rate*float64(child.numGenes())), 1)
			for m := 1 + r.Intn(maxM); m > 0; m-- {
				kinds.draw(t, child, prev, r)
			}
			if err := child.net.Validate(); err != nil {
				t.Fatalf("%s offspring %d: %v", c.label, off, err)
			}
			child.undo(parent)
			if !slices.Equal(child.net.Gates, parent.net.Gates) || !slices.Equal(child.net.POs, parent.net.POs) ||
				!slices.Equal(child.users, parent.users) {
				t.Fatalf("%s offspring %d: undo left the genotype different from its parent", c.label, off)
			}
			if len(child.dirtyGates)+len(child.dirtyPOs)+len(child.dirtyUsers) != 0 {
				t.Fatalf("%s offspring %d: undo left a recorded change", c.label, off)
			}
			prev.copyFrom(parent)
		}
		t.Logf("%s: %d gates; draws: %d no-op, %d single, %d swap, %d steal",
			c.label, len(n.Gates), kinds.noop, kinds.single, kinds.swap, kinds.steal)
		if kinds.noop == 0 || kinds.swap == 0 || kinds.steal == 0 {
			t.Fatalf("%s: draws %+v, want no-ops, swaps and steals", c.label, kinds)
		}
	}
}

// offspringCheck wraps the production evaluator and counts offspring that
// differ from the parent of their batch outside the genes their delta
// records, which an offspring slot produces when it undoes its mutation
// onto a parent it was not copied from. All forks share the counter.
type offspringCheck struct {
	*SpecEvaluator
	parent *rqfp.Netlist
	bad    *atomic.Int64
}

func (c *offspringCheck) SyncParent(epoch uint64, parent *rqfp.Netlist, fit Fitness) {
	c.parent = parent
	c.SpecEvaluator.SyncParent(epoch, parent, fit)
}

func (c *offspringCheck) EvaluateDelta(ctx context.Context, n *rqfp.Netlist, d Delta) Outcome {
	if !differsOnlyIn(c.parent, n, d) {
		c.bad.Add(1)
	}
	return c.SpecEvaluator.EvaluateDelta(ctx, n, d)
}

func (c *offspringCheck) Fork() Evaluator {
	return &offspringCheck{SpecEvaluator: c.SpecEvaluator.Fork().(*SpecEvaluator), bad: c.bad}
}

// differsOnlyIn reports whether n has p's shape and p's genes everywhere
// outside the gates and primary outputs d records.
func differsOnlyIn(p, n *rqfp.Netlist, d Delta) bool {
	if n.NumPI != p.NumPI || len(n.Gates) != len(p.Gates) || len(n.POs) != len(p.POs) {
		return false
	}
	for g := range n.Gates {
		if n.Gates[g] != p.Gates[g] && !slices.Contains(d.Gates, int32(g)) {
			return false
		}
	}
	for i := range n.POs {
		if n.POs[i] != p.POs[i] && !slices.Contains(d.POs, int32(i)) {
			return false
		}
	}
	return true
}

// TestSlotsCopyAfterParentChanges holds every offspring to its parent:
// each must differ from the parent of its batch only in the genes its
// mutation recorded. A slot that undid its mutation onto the wrong parent
// fails this after an adoption, after a ShrinkOnImprove shrink and after
// an island migration, and so does the annealer's scratch genotype after
// an accepted move; each case must show its event.
func TestSlotsCopyAfterParentChanges(t *testing.T) {
	t.Run("anneal", func(t *testing.T) {
		spec, n := buildCase(decoderTables())
		var bad atomic.Int64
		res, err := anneal(context.Background(), n, &offspringCheck{SpecEvaluator: NewSpecEvaluator(spec), bad: &bad},
			AnnealOptions{Steps: 6000, MutationRate: 0.15, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := bad.Load(); got != 0 {
			t.Fatalf("%d proposals differ from the current state outside their delta", got)
		}
		if res.Telemetry.Adoptions == 0 {
			t.Fatal("the annealer accepted no move")
		}
	})
	for _, c := range []struct {
		label string
		opt   Options
		saw   func(Telemetry) int64
	}{
		{"adoption", Options{Workers: 2}, func(t Telemetry) int64 { return t.Adoptions }},
		{"shrink", Options{Workers: 2, ShrinkOnImprove: true}, func(t Telemetry) int64 { return t.Shrinks }},
		{"migration", Options{Workers: 3, Islands: 3, MigrateEvery: 100}, func(t Telemetry) int64 { return t.MigrationsAccepted }},
	} {
		t.Run(c.label, func(t *testing.T) {
			spec, n := buildCase(decoderTables())
			opt := c.opt
			opt.Generations, opt.Lambda, opt.MutationRate, opt.Seed = 1500, 8, 0.15, 42
			var bad atomic.Int64
			res, err := optimize(context.Background(), n, &offspringCheck{SpecEvaluator: NewSpecEvaluator(spec), bad: &bad}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := bad.Load(); got != 0 {
				t.Fatalf("%d offspring differ from their parent outside their delta", got)
			}
			if c.saw(res.Telemetry) == 0 {
				t.Fatalf("the run never changed its parent that way: %+v", res.Telemetry)
			}
		})
	}
}
