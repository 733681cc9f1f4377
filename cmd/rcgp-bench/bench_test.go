package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/reversible-eda/rcgp"
)

// specFile is the repository's BENCHMARK.json.
type specFile struct {
	benchmarkFile
	Workloads []struct{ Name, Why string }
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f specFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.EndToEnd) == 0 || len(f.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no metrics")
	}
	return f
}

func toyRun(t *testing.T, cfg runConfig) (*runRecord, []span) {
	t.Helper()
	rec, spans, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		t.Fatalf("run not correct: attempted %d, failed %d: %v", rec.Attempted, rec.Failed, rec.Errors)
	}
	return rec, spans
}

func emits(t *testing.T, rec *runRecord, want []benchmarkMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := rec.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(rec.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(rec.Metrics), len(want))
	}
}

// TestBenchmarkJSONNamesTheWorkloads keeps BENCHMARK.json's workload list
// in step with the workloads the command runs.
func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	f := readSpec(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestWorkloadsToyScale runs every workload at toy scale, untraced and
// traced, twice each with one seed.
func TestWorkloadsToyScale(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{workload: w.name, seed: 7, rounds: 2, toy: true, setups: 1}
			a, _ := toyRun(t, cfg)
			b, _ := toyRun(t, cfg)
			emits(t, a, spec.EndToEnd)
			if w.name != "serve-mix" && a.Metrics["jj_total"] != b.Metrics["jj_total"] {
				t.Errorf("jj_total differs between runs of one seed: %v vs %v", a.Metrics["jj_total"], b.Metrics["jj_total"])
			}

			cfg.traced = true
			ta, spans := toyRun(t, cfg)
			tb, _ := toyRun(t, cfg)
			emits(t, ta, spec.PerLayer)
			same := []string{"core.evaluations"}
			switch w.name {
			case "suite-templates":
				same = append(same, "cec.checks", "template.learned")
			case "serve-mix":
				same = append(same, "cache.hits")
			default:
				same = append(same, "cec.checks")
			}
			for _, name := range same {
				if ta.Metrics[name] != tb.Metrics[name] {
					t.Errorf("%s differs between runs of one seed: %v vs %v", name, ta.Metrics[name], tb.Metrics[name])
				}
			}
			if len(spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if err := checkSpans(spans); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLimitCompletesFixedUnits checks that a timed phase runs the units
// jj_total sums over even when the deadline has already passed.
func TestLimitCompletesFixedUnits(t *testing.T) {
	w, err := workloadByName("cgp-hwb8")
	if err != nil {
		t.Fatal(err)
	}
	lim := runConfig{seconds: 0}.limit(w)
	for done := 0; done < w.fixedUnits; done++ {
		if lim.reached(0, done) {
			t.Fatalf("phase ends after %d units, before the %d fixed ones", done, w.fixedUnits)
		}
	}
	if !lim.reached(0, w.fixedUnits) {
		t.Fatal("phase continues past the deadline after the fixed units")
	}
}

// TestReferenceCatchesCorruptOutput corrupts one output of a synthesized
// netlist and expects the reference check, and with it the run's verdict,
// to fail.
func TestReferenceCatchesCorruptOutput(t *testing.T) {
	const name = "1-bit full adder"
	d, err := rcgp.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Synthesize(rcgp.Options{Generations: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := benchmarkReference(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCircuit(res.Circuit(), ref, 1); err != nil {
		t.Fatalf("correct circuit rejected: %v", err)
	}

	var sb strings.Builder
	if err := res.Circuit().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	for i, l := range lines {
		if f := strings.Fields(l); len(f) == 3 && f[0] == ".po" {
			lines[i] = ".po 0 " + f[2] // output 0 tied to the constant port
		}
	}
	bad, err := rcgp.ReadCircuit(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	j := &job{trace: "corrupt", label: name, circuit: bad, ref: ref}
	checkJobs([]*job{j}, 1)
	if j.mismatch == nil {
		t.Fatal("corrupted output passed the reference check")
	}
	var rec runRecord
	rec.tally(&phase{jobs: []*job{j}})
	if rec.Correct || rec.Failed != 1 {
		t.Fatalf("corrupted job not counted as failed: correct %v, failed %d", rec.Correct, rec.Failed)
	}
}

// TestQuartilesMatchPython checks quartiles against Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareVerdicts covers each verdict of the comparison rule.
func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	spec := map[string]benchmarkMetric{"jobs_per_s": {Name: "jobs_per_s", Better: "higher", Bound: &bound}}
	side := func(vals ...float64) map[groupKey]*group {
		g := &group{unit: "1/s", bySeed: map[int64]float64{}}
		for i, v := range vals {
			g.bySeed[int64(i)] = v
		}
		return map[groupKey]*group{{"w", "jobs_per_s"}: g}
	}
	base := side(10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.02, 9.98, 10)
	for _, c := range []struct {
		new  map[groupKey]*group
		want string
	}{
		{side(10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.02, 9.98, 10), "within bound"},
		{side(11, 11.1, 10.9, 11, 11.05, 10.95, 11, 11.02, 10.98, 11), "better"},
		{side(8, 8.1, 7.9, 8, 8.05, 7.95, 8, 8.02, 7.98, 8), "worse"},
		{side(5, 15, 5, 15, 5, 15, 5, 15, 5, 15), "unresolved"},
	} {
		rows := compareGroups(base, c.new, spec)
		if len(rows) != 1 || rows[0].verdict != c.want {
			t.Errorf("verdict %+v, want %s", rows, c.want)
		}
	}
}

// checkSpans reports the first span that is unclosed, has a parent outside
// its trace, or has negative self time.
func checkSpans(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) not closed", s.ID, s.Name)
		}
		if s.SelfNS < 0 {
			return fmt.Errorf("span %d (%s) has negative self time", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || p.Trace != s.Trace {
				return fmt.Errorf("span %d (%s) has parent %d outside trace %s", s.ID, s.Name, s.Parent, s.Trace)
			}
		}
	}
	return nil
}
