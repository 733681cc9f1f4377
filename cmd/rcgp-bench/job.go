package main

import (
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
)

// job is one synthesis job (library workloads) or request (serve-mix) as
// the bench saw it.
type job struct {
	seq     int
	unit    int // the round (library workloads) or request cycle (serve-mix)
	trace   string
	label   string
	traced  bool
	latency time.Duration
	// err is a failed call, an unverified result or a refused request;
	// mismatch is a disagreement with the reference, found after the phase.
	err      error
	mismatch error

	circuit *rcgp.Circuit // library jobs
	netlist string        // serve requests: parsed at check time
	ref     reference
	jjs     int

	fromCache bool
	flow      *flowData   // nil for cache hits
	serve     *serveTimes // serve requests only
}

func (j *job) ok() bool { return j.err == nil && j.mismatch == nil }

// flowData is what one pipeline run reported about itself.
type flowData struct {
	synth  time.Duration
	stages map[string]time.Duration
	// initialGates is -1 where the caller cannot see it (the client API).
	initialGates, finalGates int

	evals, dedup, incremental, full, cone, improvements int64
	mutAttempts, mutApplied                             int64
	checks, simRefuted, exhaustive, satProved           int64
	satRefuted, counterexamples                         int64
	satTime                                             time.Duration
	conflicts, decisions, propagations                  int64
	tmplWindows, tmplHits, tmplMisses, tmplRewrites     int64
	tmplSaved, tmplLearned                              int64
}

// serveTimes splits a request's latency using the job's server-side
// timestamps: queue wait, run, and the time from the job finishing to the
// client seeing it.
type serveTimes struct {
	submit, queue, run, notify time.Duration
}

func flowFromResult(res *rcgp.Result, synth time.Duration) *flowData {
	t := res.Telemetry
	f := &flowData{
		synth:        synth,
		stages:       make(map[string]time.Duration, len(t.Stages)),
		initialGates: res.Initial().NumGates(),
		finalGates:   res.Circuit().NumGates(),

		evals: t.Evaluations, dedup: t.DedupSkips, incremental: t.IncrementalEvals,
		full: t.FullEvals, cone: t.ConeGates, improvements: t.Improvements,

		checks: t.CEC.Checks, simRefuted: t.CEC.SimRefuted, exhaustive: t.CEC.ExhaustiveProved,
		satProved: t.CEC.SATProved, satRefuted: t.CEC.SATRefuted, counterexamples: t.CEC.Counterexamples,
		satTime:   t.CEC.SATTime,
		conflicts: t.CEC.Solver.Conflicts, decisions: t.CEC.Solver.Decisions, propagations: t.CEC.Solver.Propagations,
	}
	for _, st := range t.Stages {
		f.stages[st.Name] += st.Duration
	}
	for _, m := range t.Mutations {
		f.mutAttempts += m.Attempts
		f.mutApplied += m.Applied
	}
	if r := t.Template; r != nil {
		f.tmplWindows, f.tmplHits, f.tmplMisses = int64(r.Windows), r.Hits, r.Misses
		f.tmplRewrites, f.tmplSaved, f.tmplLearned = int64(r.Rewrites), int64(r.GatesSaved), int64(r.Learned)
	}
	return f
}

// flowFromJob reads the same numbers from a finished service job: stage
// times, the job-private counters, and the template report. The run time
// stands in for the synthesis call the bench cannot time from outside.
func flowFromJob(j client.Job, run time.Duration) *flowData {
	tel := j.Telemetry
	if tel == nil {
		tel = &client.JobTelemetry{}
	}
	c := tel.Counters
	f := &flowData{
		synth:        run,
		stages:       make(map[string]time.Duration, len(tel.Stages)),
		initialGates: -1,
		finalGates:   j.Result.Stats.Gates,

		evals: c["cgp.evaluations"], dedup: c["cgp.dedup_skips"], incremental: c["cgp.incremental_evals"],
		full: c["cgp.full_evals"], cone: c["cgp.cone_gates"], improvements: c["cgp.improvements"],
		mutAttempts: c["cgp.mutations_attempted"], mutApplied: c["cgp.mutations_applied"],

		checks: c["cec.checks"], simRefuted: c["cec.sim_refuted"], exhaustive: c["cec.exhaustive_proved"],
		satProved: c["cec.sat_proved"], satRefuted: c["cec.sat_refuted"], counterexamples: c["cec.counterexamples"],
		satTime:   time.Duration(tel.Histograms["cec.verdict_latency"].SumNS),
		conflicts: c["sat.conflicts"], decisions: c["sat.decisions"], propagations: c["sat.propagations"],
	}
	for _, st := range tel.Stages {
		f.stages[st.Name] += time.Duration(st.DurationNS)
	}
	if r := tel.Template; r != nil {
		f.tmplWindows, f.tmplHits, f.tmplMisses = int64(r.Windows), r.Hits, r.Misses
		f.tmplRewrites, f.tmplSaved, f.tmplLearned = int64(r.Rewrites), int64(r.GatesSaved), int64(r.Learned)
	}
	return f
}

// add accumulates g's times and counts into f.
func (f *flowData) add(g *flowData) {
	f.synth += g.synth
	for name, d := range g.stages {
		f.stages[name] += d
	}
	f.evals += g.evals
	f.dedup += g.dedup
	f.incremental += g.incremental
	f.full += g.full
	f.cone += g.cone
	f.improvements += g.improvements
	f.mutAttempts += g.mutAttempts
	f.mutApplied += g.mutApplied
	f.checks += g.checks
	f.simRefuted += g.simRefuted
	f.exhaustive += g.exhaustive
	f.satProved += g.satProved
	f.satRefuted += g.satRefuted
	f.counterexamples += g.counterexamples
	f.satTime += g.satTime
	f.conflicts += g.conflicts
	f.decisions += g.decisions
	f.propagations += g.propagations
	f.tmplWindows += g.tmplWindows
	f.tmplHits += g.tmplHits
	f.tmplMisses += g.tmplMisses
	f.tmplRewrites += g.tmplRewrites
	f.tmplSaved += g.tmplSaved
	f.tmplLearned += g.tmplLearned
}

// counters is the span payload of a job: its stage times and counts.
func (j *job) counters() map[string]float64 {
	m := map[string]float64{"latency_ns": float64(j.latency), "jjs": float64(j.jjs)}
	if j.fromCache {
		m["from_cache"] = 1
	}
	if f := j.flow; f != nil {
		for name, d := range f.stages {
			m[name+"_ns"] = float64(d)
		}
		m["evaluations"] = float64(f.evals)
		m["cec.checks"] = float64(f.checks)
		m["cec.sat_ns"] = float64(f.satTime)
		m["template.hits"] = float64(f.tmplHits)
		m["template.learned"] = float64(f.tmplLearned)
	}
	if s := j.serve; s != nil {
		m["queue_wait_ns"] = float64(s.queue)
		m["run_ns"] = float64(s.run)
		m["notify_ns"] = float64(s.notify)
	}
	return m
}
