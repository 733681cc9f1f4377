package flow

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// frontEnd builds the pipeline over a small non-trivial spec (2-input AND,
// 2-input XOR) and returns its stages up to and including the conversion,
// so a test can append its own stage and drive the real stage loop.
func frontEnd(t *testing.T, ctx context.Context) (*pipeline, []stage) {
	t.Helper()
	tables := []tt.TT{
		tt.FromFunc(2, func(s uint) bool { return s&1 != 0 && s&2 != 0 }),
		tt.FromFunc(2, func(s uint) bool { return (s&1 != 0) != (s&2 != 0) }),
	}
	opt := Options{CGP: core.Options{Seed: 1}, SkipCGP: true}
	p := newPipeline(ctx, opt)
	stages, err := p.stages(aig.FromTruthTables(tables), opt)
	if err != nil {
		t.Fatal(err)
	}
	if stages[2].name != "flow.convert" {
		t.Fatalf("stage 2 = %q, want flow.convert", stages[2].name)
	}
	return p, stages[:3]
}

// A stage that swaps in a functionally wrong netlist must abort the
// pipeline with its name and the lost-equivalence diagnosis in the error.
func TestPipelineCatchesWrongNetlist(t *testing.T) {
	p, stages := frontEnd(t, context.Background())
	stages = append(stages, stage{name: "test.corrupt", run: func(context.Context) error {
		bad := p.res.Final.Clone()
		bad.POs[0] = rqfp.ConstPort // AND output pinned to constant 1
		p.res.Final = bad
		return nil
	}})
	err := p.run(context.Background(), stages)
	if err == nil {
		t.Fatal("pipeline accepted a corrupting stage")
	}
	if !strings.Contains(err.Error(), "test.corrupt") {
		t.Errorf("error does not name the stage: %v", err)
	}
	if !strings.Contains(err.Error(), "lost equivalence") {
		t.Errorf("error does not diagnose lost equivalence: %v", err)
	}
}

// The fingerprint check must catch a stage that edits the current netlist
// in place (same pointer).
func TestPipelineCatchesInPlaceMutation(t *testing.T) {
	p, stages := frontEnd(t, context.Background())
	stages = append(stages, stage{name: "test.inplace", run: func(context.Context) error {
		p.res.Final.POs[0] = rqfp.ConstPort
		return nil
	}})
	err := p.run(context.Background(), stages)
	if err == nil || !strings.Contains(err.Error(), "test.inplace") || !strings.Contains(err.Error(), "lost equivalence") {
		t.Fatalf("in-place corruption not caught: %v", err)
	}
}

// A stage that leaves the netlist untouched must not trigger a proof.
func TestPipelineSkipsProofForReadOnlyStage(t *testing.T) {
	p, stages := frontEnd(t, context.Background())
	stages = append(stages, stage{name: "test.readonly", run: func(context.Context) error { return nil }})
	if err := p.run(context.Background(), stages); err != nil {
		t.Fatal(err)
	}
	// Exactly one check: the initialization proof after convert.
	if got := p.res.Spec.Stats().Checks; got != 1 {
		t.Fatalf("oracle ran %d checks, want 1 (convert only)", got)
	}
	last := p.res.StageTimes[len(p.res.StageTimes)-1]
	if last.Name != "test.readonly" {
		t.Fatalf("last stage = %q, want test.readonly", last.Name)
	}
}

// Once the context is cancelled the remaining stages are recorded as
// skipped with "canceled", and run returns nil so the caller keeps the
// validated best-so-far netlist.
func TestPipelineCancellationSkipsRemainingStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, stages := frontEnd(t, ctx)
	never := func(context.Context) error {
		t.Error("stage ran after cancellation")
		return nil
	}
	stages = append(stages,
		stage{name: "test.cancel", run: func(context.Context) error {
			cancel()
			return nil
		}},
		stage{name: "test.never1", run: never},
		stage{name: "test.never2", run: never},
	)
	if err := p.run(ctx, stages); err != nil {
		t.Fatalf("cancelled run must return the best-so-far state, got %v", err)
	}
	if p.res.Final == nil {
		t.Fatal("netlist lost on cancellation")
	}
	if len(p.res.Skipped) != 2 {
		t.Fatalf("skipped = %+v, want the two trailing stages", p.res.Skipped)
	}
	for i, name := range []string{"test.never1", "test.never2"} {
		if p.res.Skipped[i].Name != name || p.res.Skipped[i].Skipped != "canceled" {
			t.Fatalf("skip %d = %+v", i, p.res.Skipped[i])
		}
	}
	if got := p.reg.Snapshot().Counters["pass.skipped"]; got != 2 {
		t.Fatalf("pass.skipped = %d, want 2", got)
	}
}

// TestWideCircuitRecordsResubSkip: on a 16-input circuit the oracle is not
// exhaustive, so the resub stage must be recorded as skipped with a reason —
// not silently dropped (and not listed among the executed stages).
func TestWideCircuitRecordsResubSkip(t *testing.T) {
	a := aig.New(16)
	var po aig.Lit = aig.Const0
	for i := 0; i < 16; i += 2 {
		po = a.Xor(po, a.And(a.PI(i), a.PI(i+1)))
	}
	a.AddPO(po)
	res, err := Run(a, Options{CGP: core.Options{Generations: 200, Seed: 2}, Resub: true})
	if err != nil {
		t.Fatal(err)
	}
	var skip string
	for _, sk := range res.Skipped {
		if sk.Name == "flow.resub" {
			skip = sk.Skipped
		}
	}
	if skip == "" {
		t.Fatalf("no skip record for flow.resub: %+v", res.Skipped)
	}
	if !strings.Contains(skip, "16 inputs") {
		t.Fatalf("skip reason %q does not explain the input count", skip)
	}
	for _, st := range res.StageTimes {
		if st.Name == "flow.resub" {
			t.Fatal("skipped resub stage still listed in StageTimes")
		}
	}
	if res.Resub != nil {
		t.Fatal("resub report present despite skip")
	}
	if res.Obs.Histograms["flow.resub"].Count != 0 {
		t.Fatal("skipped resub stage opened a span")
	}
}

// TestScriptCancellationReturnsBestSoFar: cancelling mid-search must
// return the validated best-so-far result with StopReason set and the
// stages behind the cancellation recorded as skipped.
func TestScriptCancellationReturnsBestSoFar(t *testing.T) {
	c := bench.Decoder(2)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := RunContext(ctx, aig.FromTruthTables(c.Tables), Options{
		CGP:          core.Options{Generations: 1 << 30, Seed: 11},
		WindowRounds: 2,
		Resub:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil {
		t.Fatal("no best-so-far netlist")
	}
	got := res.Final.TruthTables()
	for i := range c.Tables {
		if !got[i].Equal(c.Tables[i]) {
			t.Fatalf("best-so-far output %d wrong", i)
		}
	}
	if res.CGP == nil {
		t.Fatal("search report missing")
	}
	switch res.CGP.Telemetry.StopReason {
	case core.StopCanceled, core.StopDeadline:
	default:
		t.Fatalf("stop reason = %q, want canceled or deadline", res.CGP.Telemetry.StopReason)
	}
	skipped := map[string]string{}
	for _, sk := range res.Skipped {
		skipped[sk.Name] = sk.Skipped
	}
	for _, name := range []string{"flow.window", "flow.resub", "flow.buffer"} {
		if skipped[name] != "canceled" {
			t.Fatalf("stage %s not recorded as canceled: %+v", name, res.Skipped)
		}
	}
}

// TestCancelBeforeInitialization: a context dead on arrival must yield the
// context error, not a nil-netlist panic or an empty result.
func TestCancelBeforeInitialization(t *testing.T) {
	c := bench.Decoder(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, aig.FromTruthTables(c.Tables), Options{})
	if err == nil || !strings.Contains(err.Error(), "canceled before initialization") {
		t.Fatalf("err = %v", err)
	}
}
