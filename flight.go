package rcgp

import "github.com/reversible-eda/rcgp/internal/core"

// FlightSample is one point of the search flight recorder: a snapshot of
// the evolutionary trajectory taken every Options.FlightEvery generations
// (plus one closing sample when the search stops). Samples are taken on
// the engine's coordinator goroutine from coordinator-owned state and
// consume no randomness, so a recorded run is bit-identical per seed to an
// unrecorded one. The JSON field names are the wire format served by the
// synthesis service's /jobs/{id}/progress stream and dumped by
// `rcgp -flight`.
type FlightSample struct {
	// Generation the sample was taken at, and the cumulative offspring
	// evaluation count.
	Gen         int   `json:"gen"`
	Evaluations int64 `json:"evals"`
	// Current best (parent) circuit costs: active RQFP gates, garbage
	// outputs, path-balancing buffers, depth in clocked stages, and the
	// resulting Josephson junction count.
	Gates   int `json:"gates"`
	Garbage int `json:"garbage"`
	Buffers int `json:"buffers"`
	Depth   int `json:"depth"`
	JJs     int `json:"jjs"`
	// Evaluation-path split: full re-simulations (the initial parent and
	// stale-parent fallbacks), dirty-cone incremental re-simulations, and
	// phenotype-dedup fitness inheritances.
	FullEvals        int64 `json:"full_evals"`
	IncrementalEvals int64 `json:"incremental_evals"`
	DedupSkips       int64 `json:"dedup_skips"`
	// Improvements is the cumulative count of strictly better adoptions.
	Improvements int64 `json:"improvements"`
	// ElapsedMS is wall-clock milliseconds since the search started, and
	// EvalsPerSec the cumulative evaluation throughput.
	ElapsedMS   int64   `json:"elapsed_ms"`
	EvalsPerSec float64 `json:"evals_per_sec"`
}

func flightFromCore(s core.FlightSample) FlightSample {
	return FlightSample{
		Gen:              s.Gen,
		Evaluations:      s.Evaluations,
		Gates:            s.Gates,
		Garbage:          s.Garbage,
		Buffers:          s.Buffers,
		Depth:            s.Depth,
		JJs:              s.JJs,
		FullEvals:        s.FullEvals,
		IncrementalEvals: s.IncrementalEvals,
		DedupSkips:       s.DedupSkips,
		Improvements:     s.Improvements,
		ElapsedMS:        s.ElapsedMS,
		EvalsPerSec:      s.EvalsPerSec,
	}
}

func flightFromCoreSlice(in []core.FlightSample) []FlightSample {
	if len(in) == 0 {
		return nil
	}
	out := make([]FlightSample, len(in))
	for i, s := range in {
		out[i] = flightFromCore(s)
	}
	return out
}
