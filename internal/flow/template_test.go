package flow

import (
	"testing"

	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/template"
)

func TestTemplatePassRunsInDefaultFlow(t *testing.T) {
	lib, err := template.Starter()
	if err != nil {
		t.Fatal(err)
	}
	c := bench.Decoder(2)
	res, err := RunTables(c.Tables, Options{
		CGP:       core.Options{Generations: 300, Seed: 1},
		Templates: lib,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Template == nil {
		t.Fatal("template pass did not run")
	}
	if res.Template.Windows == 0 {
		t.Fatal("template pass scanned no windows")
	}
	got := res.Final.TruthTables()
	for i := range c.Tables {
		if !got[i].Equal(c.Tables[i]) {
			t.Fatalf("output %d wrong after template pass", i)
		}
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTemplateFlowDeterministicUnderWorkers pins the determinism contract:
// the template sweep draws no randomness and runs after the search, so for
// a fixed seed the whole flow is bit-identical regardless of the evaluation
// worker count — including the learned-library contents.
func TestTemplateFlowDeterministicUnderWorkers(t *testing.T) {
	c := bench.Graycode(4)
	for _, seed := range []int64{1, 7} {
		type outcome struct {
			final string
			lib   []template.Entry
		}
		var runs [2]outcome
		for i, workers := range []int{1, 8} {
			lib, err := template.Starter()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunTables(c.Tables, Options{
				CGP: core.Options{
					Generations: 400,
					Seed:        seed,
					Workers:     workers,
				},
				Templates: lib,
			})
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = outcome{final: res.Final.String(), lib: lib.Dump()}
		}
		if runs[0].final != runs[1].final {
			t.Fatalf("seed %d: final netlist differs between 1 and 8 workers", seed)
		}
		if len(runs[0].lib) != len(runs[1].lib) {
			t.Fatalf("seed %d: learned library sizes differ: %d vs %d", seed, len(runs[0].lib), len(runs[1].lib))
		}
		for i := range runs[0].lib {
			if runs[0].lib[i] != runs[1].lib[i] {
				t.Fatalf("seed %d: learned library entry %d differs between worker counts", seed, i)
			}
		}
	}
}

// TestTemplatePassNeverCostsJJ runs every suite circuit but hwb8 twice on
// the same seed, plain CGP and CGP followed by the template pass, with one
// learning starter library shared across the suite the way a server shares
// it across jobs. A splice only ever replaces a window by a smaller one, but
// it can lengthen paths and so add buffers; the template leg must never end
// with more JJs than the plain one.
func TestTemplatePassNeverCostsJJ(t *testing.T) {
	lib, err := template.Starter()
	if err != nil {
		t.Fatal(err)
	}
	run := func(c bench.Circuit, lib *template.Library) *Result {
		res, err := RunTables(c.Tables, Options{
			CGP:       core.Options{Generations: 300, Lambda: 8, MutationRate: 0.1, Seed: 1, Workers: 1},
			Templates: lib,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		return res
	}
	improved, base, withTemplates := 0, 0, 0
	for _, c := range bench.All() {
		if c.Name == "hwb8" {
			continue
		}
		b, tm := run(c, nil).FinalStats.JJs, run(c, lib).FinalStats.JJs
		if tm > b {
			t.Errorf("%s: %d JJs with templates, %d without", c.Name, tm, b)
		}
		if tm < b {
			improved++
		}
		base += b
		withTemplates += tm
	}
	t.Logf("templates improved %d circuits: %d → %d JJs; library %d classes", improved, base, withTemplates, lib.Len())
}
