package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// The incremental engine's contract: per seed, the trajectory of adopted
// parents — and therefore the final netlist, fitness, and every
// deterministic counter except the full/incremental/dedup split — is
// bit-identical to the full reference path. These tests are the
// differential gate for that contract: every engine (the (1+λ) engine,
// its islands, and the annealer) with the production SpecEvaluator
// against fullPath, which scores every candidate with
// SpecEvaluator.Evaluate.

// fullPath is the reference evaluator: it implements Evaluator by ignoring
// the delta, so every candidate goes through the full
// SpecEvaluator.Evaluate.
type fullPath struct{ *SpecEvaluator }

func (fullPath) SyncParent(uint64, *rqfp.Netlist, Fitness) {}
func (f fullPath) EvaluateDelta(ctx context.Context, n *rqfp.Netlist, _ Delta) Outcome {
	return f.Evaluate(ctx, n)
}
func (f fullPath) Fork() Evaluator { return fullPath{f.SpecEvaluator.Fork().(*SpecEvaluator)} }

// evaluatorFor returns the production evaluator on spec, or the full-path
// reference when full is set.
func evaluatorFor(spec *cec.Spec, full bool) Evaluator {
	if full {
		return fullPath{NewSpecEvaluator(spec)}
	}
	return NewSpecEvaluator(spec)
}

// optimizeWith runs the engine on n against spec with the production
// evaluator, or with the full-path reference when full is set.
func optimizeWith(t *testing.T, n *rqfp.Netlist, spec *cec.Spec, full bool, opt Options) *Result {
	t.Helper()
	res, err := optimize(context.Background(), n, evaluatorFor(spec, full), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func fullAdderTables() []tt.TT {
	sum := tt.FromFunc(3, func(s uint) bool { return (s&1+s>>1&1+s>>2&1)%2 == 1 })
	cout := tt.FromFunc(3, func(s uint) bool { return s&1+s>>1&1+s>>2&1 >= 2 })
	return []tt.TT{sum, cout}
}

func runMode(t *testing.T, tables []tt.TT, full bool, workers, islands int, seed int64) *Result {
	t.Helper()
	spec, n := buildCase(tables)
	return optimizeWith(t, n, spec, full, Options{
		Generations:  1200,
		Lambda:       8,
		MutationRate: 0.15,
		Seed:         seed,
		Workers:      workers,
		Islands:      islands,
		MigrateEvery: 300,
	})
}

// assertSameTrajectory compares everything that must match between the
// full-path reference and the production engine: the evolved circuit, its
// fitness, and all deterministic counters except the evaluation-path split.
// It also checks that the reference really scored every offspring in full.
func assertSameTrajectory(t *testing.T, full, inc *Result, label string) {
	t.Helper()
	if tf := full.Telemetry; tf.FullEvals != tf.Evaluations {
		t.Fatalf("%s: reference run left the full path: FullEvals %d != Evaluations %d", label, tf.FullEvals, tf.Evaluations)
	}
	if full.Fitness != inc.Fitness {
		t.Fatalf("%s: fitness diverged: full %+v, incremental %+v", label, full.Fitness, inc.Fitness)
	}
	if full.Best.String() != inc.Best.String() {
		t.Fatalf("%s: final netlist diverged", label)
	}
	tf, ti := full.Telemetry, inc.Telemetry
	tf.Elapsed, ti.Elapsed = 0, 0
	tf.DedupSkips, ti.DedupSkips = 0, 0
	tf.IncrementalEvals, ti.IncrementalEvals = 0, 0
	tf.FullEvals, ti.FullEvals = 0, 0
	tf.ConeGates, ti.ConeGates = 0, 0
	if tf != ti {
		t.Fatalf("%s: telemetry diverged:\nfull        %+v\nincremental %+v", label, tf, ti)
	}
}

func TestIncrementalMatchesFullTrajectory(t *testing.T) {
	for _, c := range []struct {
		label            string
		workers, islands int
	}{
		{"sequential", 1, 1},
		{"workers4", 4, 1},
		{"islands3", 4, 3},
	} {
		full := runMode(t, decoderTables(), true, c.workers, c.islands, 42)
		inc := runMode(t, decoderTables(), false, c.workers, c.islands, 42)
		assertSameTrajectory(t, full, inc, c.label)
	}
}

func TestIncrementalMatchesFullAdder(t *testing.T) {
	full := runMode(t, fullAdderTables(), true, 1, 1, 3)
	inc := runMode(t, fullAdderTables(), false, 1, 1, 3)
	assertSameTrajectory(t, full, inc, "full_adder")
}

// TestAnnealMatchesFullPath holds the annealer to the same contract: the
// production evaluator against the full-path reference on two exhaustive
// specs and on the 16-input comparator, where offspring that survive
// simulation are proved against their parent on the delta side and
// against the spec on the reference side, and refutations widen the
// stimulus mid-run.
func TestAnnealMatchesFullPath(t *testing.T) {
	for _, c := range []struct {
		label string
		build func() (*cec.Spec, *rqfp.Netlist)
		opt   AnnealOptions
	}{
		{"decoder", func() (*cec.Spec, *rqfp.Netlist) { return buildCase(decoderTables()) },
			AnnealOptions{Steps: 6000, MutationRate: 0.15, Seed: 1}},
		{"full_adder", func() (*cec.Spec, *rqfp.Netlist) { return buildCase(fullAdderTables()) },
			AnnealOptions{Steps: 6000, MutationRate: 0.15, Seed: 3}},
		{"comparator", buildComparatorCase,
			AnnealOptions{Steps: 1500, MutationRate: 0.01, Seed: 5}},
	} {
		var res [2]*Result
		var stats [2]cec.Stats
		for i, full := range []bool{true, false} {
			spec, n := c.build()
			r, err := anneal(context.Background(), n, evaluatorFor(spec, full), c.opt)
			if err != nil {
				t.Fatal(err)
			}
			res[i], stats[i] = r, spec.Stats()
		}
		assertSameTrajectory(t, res[0], res[1], c.label)
		assertSplit(t, res[1], c.label)
		if full := res[1].Telemetry.FullEvals; full != 1 {
			t.Fatalf("%s: %d full evaluations, want only the initial state's", c.label, full)
		}
		ref, got := stats[0], stats[1]
		if got.SimRefuted != ref.SimRefuted || got.SATRefuted != ref.SATRefuted || got.Counterexamples != ref.Counterexamples {
			t.Fatalf("%s: oracle refutations diverged:\nfull        %+v\nincremental %+v", c.label, ref, got)
		}
		if c.label == "comparator" && got.Counterexamples == 0 {
			t.Fatalf("%s: no counterexample was learned, so the re-sync after a widening went untested", c.label)
		}
		t.Logf("%s: evals=%d dedup=%d incremental=%d checks %d -> %d, counterexamples %d",
			c.label, res[1].Evaluations, res[1].Telemetry.DedupSkips, res[1].Telemetry.IncrementalEvals,
			ref.Checks, got.Checks, got.Counterexamples)
	}
}

// assertSplit checks that the dedup / incremental / full split of a
// production run adds up to Evaluations, and that the delta path served
// offspring.
func assertSplit(t *testing.T, res *Result, label string) {
	t.Helper()
	tel := res.Telemetry
	if got := tel.DedupSkips + tel.IncrementalEvals + tel.FullEvals; got != tel.Evaluations {
		t.Fatalf("%s: split %d+%d+%d = %d != Evaluations %d", label,
			tel.DedupSkips, tel.IncrementalEvals, tel.FullEvals, got, tel.Evaluations)
	}
	if tel.IncrementalEvals == 0 {
		t.Fatalf("%s: the delta path served no evaluation", label)
	}
}

// TestIncrementalTelemetrySplit pins the evaluation-path split: the
// default engine's three counters add up to Evaluations, and the full-path
// reference reports every evaluation as full.
func TestIncrementalTelemetrySplit(t *testing.T) {
	inc := runMode(t, decoderTables(), false, 1, 1, 42)
	assertSplit(t, inc, "cgp")
	tel := inc.Telemetry
	if tel.DedupSkips == 0 {
		t.Fatal("no offspring was ever deduplicated against its parent (expected for no-op and inactive-gene mutations)")
	}
	t.Logf("evals=%d dedup=%d incremental=%d full=%d mean_cone=%.1f",
		tel.Evaluations, tel.DedupSkips, tel.IncrementalEvals, tel.FullEvals,
		float64(tel.ConeGates)/float64(tel.IncrementalEvals))

	full := runMode(t, decoderTables(), true, 1, 1, 42)
	tf := full.Telemetry
	if tf.DedupSkips != 0 || tf.IncrementalEvals != 0 || tf.ConeGates != 0 {
		t.Fatalf("full path reported incremental counters: %+v", tf)
	}
	if tf.FullEvals != tf.Evaluations {
		t.Fatalf("full path: FullEvals %d != Evaluations %d", tf.FullEvals, tf.Evaluations)
	}
}

// wideNetlist builds a topologically valid single-fanout chain circuit with
// numPI primary inputs — wide enough (>14 PIs) to force the spec off the
// exhaustive path, onto random stimulus plus SAT confirmation.
func wideNetlist(numPI, numGates, numPO int) *rqfp.Netlist {
	n := rqfp.NewNetlist(numPI)
	free := make([]rqfp.Signal, 0, numPI+3*numGates)
	for i := 0; i < numPI; i++ {
		free = append(free, n.PIPort(i))
	}
	for g := 0; g < numGates; g++ {
		var in [3]rqfp.Signal
		for m := 0; m < 3; m++ {
			in[m] = free[0]
			free = free[1:]
		}
		n.AddGate(rqfp.Gate{In: in})
		for m := 0; m < 3; m++ {
			free = append(free, n.Port(g, m))
		}
	}
	for i := 0; i < numPO; i++ {
		n.POs = append(n.POs, free[len(free)-1-i])
	}
	return n
}

// TestIncrementalNonExhaustive drives the incremental engine through the
// random-stimulus + SAT path: counterexamples widen the stimulus mid-run,
// forcing resident-parent invalidation and re-sync.
func TestIncrementalNonExhaustive(t *testing.T) {
	build := func() (*cec.Spec, *rqfp.Netlist) {
		n := wideNetlist(15, 12, 3)
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		return cec.NewSpecFromNetlist(n, 2, 1), n
	}
	run := func(full bool) *Result {
		spec, n := build()
		return optimizeWith(t, n, spec, full, Options{
			Generations:  400,
			Lambda:       4,
			MutationRate: 0.1,
			Seed:         11,
		})
	}
	full := run(true)
	inc := run(false)
	assertSameTrajectory(t, full, inc, "non_exhaustive")
}

// FuzzIncrementalEval is the evaluator-level differential fuzz: random
// mutation chains, every offspring scored by EvaluateDelta in exact mode,
// by EvaluateDelta in fast-refute mode, and by the full reference
// Evaluate, each on its own identically built spec. The exact leg must
// match the reference bit-for-bit; the fast-refute leg must give the same
// verdicts, costs and counterexamples, may report another Match only for
// an offspring the simulation screen refutes, and must leave the same
// oracle counters. wide selects the 16-input spec of buildComparatorCase,
// where offspring that survive simulation are proved against their parent
// on the delta side and against the spec on the reference side; the wide
// seeds must reach both a proof and a refutation there.
func FuzzIncrementalEval(f *testing.F) {
	var wide cec.Stats
	for _, seed := range []int64{1, 7, 42, 1337} {
		f.Add(seed, false)
		f.Add(seed, true)
		wide.Add(checkIncrementalEval(f, seed, true))
	}
	if wide.SATProved == 0 || wide.SATRefuted == 0 {
		f.Fatalf("wide seeds reached %d SAT proofs and %d refutations on the delta side, want both", wide.SATProved, wide.SATRefuted)
	}
	f.Fuzz(func(t *testing.T, seed int64, wide bool) {
		checkIncrementalEval(t, seed, wide)
	})
}

// checkIncrementalEval runs one FuzzIncrementalEval chain and returns the
// exact leg's oracle counters.
func checkIncrementalEval(tb testing.TB, seed int64, wide bool) cec.Stats {
	build, rate := func() (*cec.Spec, *rqfp.Netlist) { return buildCase(decoderTables()) }, 0.25
	switch {
	case wide:
		// At most two point mutations: some offspring survive the screen.
		build, rate = buildComparatorCase, 0.01
	case seed%2 != 0:
		build = func() (*cec.Spec, *rqfp.Netlist) { return buildCase(fullAdderTables()) }
	}
	spec, n := build()
	fastSpec, _ := build()
	refSpec, _ := build()
	ev := NewSpecEvaluator(spec)
	ev.Exact = true // fast-refute off: Match must be exact even on refuted offspring
	fast := NewSpecEvaluator(fastSpec)
	ref := NewSpecEvaluator(refSpec)
	ctx := context.Background()

	r := rand.New(rand.NewSource(seed))
	parent := newGenotype(n.Clone())
	parentFit := ref.Evaluate(ctx, parent.net).Fitness
	child := newGenotype(n.Clone())
	epoch := uint64(1)
	for step := 0; step < 150; step++ {
		ev.SyncParent(epoch, parent.net, parentFit)
		fast.SyncParent(epoch, parent.net, parentFit)
		child.copyFrom(parent)
		child.mutate(r, rate)
		delta := Delta{Gates: child.dirtyGates, POs: child.dirtyPOs}
		got := ev.EvaluateDelta(ctx, child.net, delta)
		quick := fast.EvaluateDelta(ctx, child.net, delta)
		want := ref.Evaluate(ctx, child.net)
		if got.Fitness != want.Fitness {
			tb.Fatalf("step %d: incremental fitness %+v != full %+v (dedup=%v incr=%v cone=%d)",
				step, got.Fitness, want.Fitness, got.Dedup, got.Incremental, got.ConeGates)
		}
		if !slices.Equal(got.Counterexample, want.Counterexample) {
			tb.Fatalf("step %d: incremental counterexample %v != full %v", step, got.Counterexample, want.Counterexample)
		}
		checkFastRefute(tb, step, quick, want)
		if want.Counterexample != nil {
			ev.Learn(got.Counterexample)
			fast.Learn(quick.Counterexample)
			ref.Learn(want.Counterexample)
		}
		if want.Fitness.BetterOrEqual(parentFit) {
			parent, child = child, parent
			parentFit = want.Fitness
			epoch++
		}
	}
	ev.FlushStats()
	fast.FlushStats()
	exactStats, fastStats := spec.Stats(), fastSpec.Stats()
	exactStats.SATTime, fastStats.SATTime = 0, 0
	if exactStats != fastStats {
		tb.Fatalf("oracle counters diverged:\nexact %+v\nfast  %+v", exactStats, fastStats)
	}
	return spec.Stats()
}

// checkFastRefute compares a fast-refute evaluation with the full path's:
// the same verdict, costs, counterexample and abort flag, and the same
// Match unless the full path refuted the offspring by simulation, where
// the fast Match need only stay below 1.
func checkFastRefute(tb testing.TB, step int, got, want Outcome) {
	tb.Helper()
	g := got.Fitness
	if !want.Fitness.Valid && want.Counterexample == nil && !want.Aborted {
		if g.Valid || g.Match >= 1 {
			tb.Fatalf("step %d: fast-refute fitness %+v for an offspring the screen refutes (full %+v)", step, g, want.Fitness)
		}
		g.Match = want.Fitness.Match
	}
	if g != want.Fitness || !slices.Equal(got.Counterexample, want.Counterexample) || got.Aborted != want.Aborted {
		tb.Fatalf("step %d: fast-refute outcome %+v != full %+v", step, got, want)
	}
}
