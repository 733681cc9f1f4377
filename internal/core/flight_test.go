package core

import (
	"testing"

	"github.com/reversible-eda/rcgp/internal/obs"
)

func TestFlightRingWindow(t *testing.T) {
	r := newFlightRing(4)
	if _, ok := r.last(); ok {
		t.Fatal("empty ring reports a last sample")
	}
	for g := 0; g < 10; g++ {
		r.push(FlightSample{Gen: g})
	}
	if r.total != 10 {
		t.Fatalf("total = %d, want 10", r.total)
	}
	got := r.samples()
	if len(got) != 4 {
		t.Fatalf("retained %d samples, want 4", len(got))
	}
	for i, s := range got {
		if s.Gen != 6+i {
			t.Fatalf("sample %d has gen %d, want %d (chronological window)", i, s.Gen, 6+i)
		}
	}
	if last, ok := r.last(); !ok || last.Gen != 9 {
		t.Fatalf("last = %+v, want gen 9", last)
	}
}

func TestFlightRecorderSamplesTrajectory(t *testing.T) {
	spec, n := buildCase(decoderTables())
	var streamed []FlightSample
	res, err := Optimize(n, spec, Options{
		Generations: 500, Seed: 9,
		FlightEvery: 100,
		FlightSink:  func(s FlightSample) { streamed = append(streamed, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flight) == 0 {
		t.Fatal("no flight samples recorded")
	}
	// Gens 0,100,...,400 plus the final closing sample at gen 500.
	if got := len(res.Flight); got != 6 {
		t.Fatalf("got %d samples, want 6: %+v", got, res.Flight)
	}
	if len(streamed) != len(res.Flight) {
		t.Fatalf("sink saw %d samples, ring kept %d", len(streamed), len(res.Flight))
	}
	last := res.Flight[len(res.Flight)-1]
	if last.Gen != res.Generations {
		t.Fatalf("final sample gen %d, want %d", last.Gen, res.Generations)
	}
	if last.Evaluations != res.Evaluations {
		t.Fatalf("final sample evals %d, want %d", last.Evaluations, res.Evaluations)
	}
	prev := FlightSample{Gen: -1, Evaluations: -1}
	for i, s := range res.Flight {
		if s.Gen <= prev.Gen || s.Evaluations < prev.Evaluations {
			t.Fatalf("sample %d not monotone: %+v after %+v", i, s, prev)
		}
		if s.Gates <= 0 || s.JJs <= 0 {
			t.Fatalf("sample %d has empty circuit costs: %+v", i, s)
		}
		if s.FullEvals+s.IncrementalEvals+s.DedupSkips != s.Evaluations {
			t.Fatalf("sample %d eval split does not add up: %+v", i, s)
		}
		prev = s
	}
	finalStats := res.Best.ComputeStats()
	if last.Gates != finalStats.Gates {
		t.Fatalf("final sample gates %d, circuit has %d", last.Gates, finalStats.Gates)
	}
}

// The flight recorder must not perturb the search: a recorded run and an
// unrecorded run on the same seed must adopt the same final chromosome.
func TestFlightRecorderPreservesDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		spec1, n1 := buildCase(decoderTables())
		plain, err := Optimize(n1, spec1, Options{Generations: 500, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		spec2, n2 := buildCase(decoderTables())
		recorded, err := Optimize(n2, spec2, Options{
			Generations: 500, Seed: 9, Workers: workers,
			FlightEvery: 7, FlightCap: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Fitness != recorded.Fitness {
			t.Fatalf("workers=%d: recording changed fitness: %v vs %v", workers, plain.Fitness, recorded.Fitness)
		}
		if plain.Best.String() != recorded.Best.String() {
			t.Fatalf("workers=%d: recording changed the final chromosome", workers)
		}
		if len(recorded.Flight) != 16 {
			t.Fatalf("workers=%d: ring kept %d samples, want FlightCap=16", workers, len(recorded.Flight))
		}
		_ = spec1
	}
}

func TestScopeMetricsDoubleWrite(t *testing.T) {
	jobReg, globalReg := obs.NewRegistry(), obs.NewRegistry()
	spec, n := buildCase(decoderTables())
	res, err := Optimize(n, spec, Options{
		Generations: 300, Seed: 3,
		Metrics:     obs.NewScope(jobReg, globalReg),
		FlightEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*obs.Registry{jobReg, globalReg} {
		snap := r.Snapshot()
		h, ok := snap.Histograms["cgp.eval.worker_0"]
		if !ok || h.Count == 0 {
			t.Fatalf("registry missing eval latency histogram: %+v", snap.Histograms)
		}
		if snap.Gauges["cgp.generation"] != int64(res.Generations) {
			t.Fatalf("cgp.generation gauge = %d, want %d", snap.Gauges["cgp.generation"], res.Generations)
		}
		if snap.Gauges["cgp.best_gates"] != int64(res.Fitness.Gates) {
			t.Fatalf("cgp.best_gates gauge = %d, want %d", snap.Gauges["cgp.best_gates"], res.Fitness.Gates)
		}
	}
	a, b := jobReg.Snapshot(), globalReg.Snapshot()
	if a.Histograms["cgp.eval.worker_0"].Count != b.Histograms["cgp.eval.worker_0"].Count {
		t.Fatal("scope members diverged on eval histogram count")
	}
}
