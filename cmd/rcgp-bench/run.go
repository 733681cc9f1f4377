package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// runConfig is one run: one workload, one seed.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	// rounds > 0 runs exactly that many units per client instead of a
	// timed phase, and toy selects toy-scale inputs (smoke tests).
	rounds int
	traced bool
	toy    bool
	// setups is how many times the untraced run sets up; setup_s is the
	// median. The last set-up is the one measured.
	setups int
}

// setUps is the number of set-ups of an untraced run: set-up takes 0.03 to
// 0.3 s, so a single one moves by a quarter from run to run.
const setUps = 9

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run's record: the host it ran on, what it attempted,
// and its end-to-end metrics (untraced) or per-layer metrics (traced).
type runRecord struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Host      hostInfo `json:"host"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Units     []int    `json:"units"`
	TailPct   float64  `json:"tail_percentile"`
	// Slowdown is the host's calibration sweep time over referenceSweep
	// during the run; time-valued metrics were divided by
	// slowdown^calElasticity and rates multiplied.
	Slowdown float64           `json:"slowdown"`
	Errors   []string          `json:"errors,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
}

// maxErrors bounds the failure messages a record keeps.
const maxErrors = 5

// limit ends the phase after c.rounds units per client, or at the
// deadline but never before each client has done w.fixedUnits units.
func (c runConfig) limit(w workload) limit {
	if c.rounds > 0 {
		counts := make([]int, serveClients)
		for i := range counts {
			counts[i] = c.rounds
		}
		return limit{counts: counts}
	}
	now := time.Now()
	return limit{start: now, deadline: now.Add(time.Duration(c.seconds * float64(time.Second))), min: w.fixedUnits}
}

// runWorkload performs one run and returns its record and, for a traced
// run, its spans.
func runWorkload(cfg runConfig) (*runRecord, []span, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	rec := &runRecord{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Host: currentHost(w.parallelism), TailPct: w.tailPct,
	}
	if !cfg.traced {
		var setupTimes []float64
		var e env
		for k := 0; k < max(cfg.setups, 1); k++ {
			if e != nil {
				e.close()
			}
			t0 := time.Now()
			if e, err = w.setup(&setupCtx{seed: cfg.seed, toy: cfg.toy}); err != nil {
				return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			setupTimes = append(setupTimes, time.Since(t0).Seconds())
		}
		p, err := timedPhase(w, e, cfg.limit(w), nil)
		e.close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		checkJobs(p.jobs, cfg.seed)
		rec.tally(p)
		rec.Metrics = endToEnd(w, p, setupTimes)
		rec.Slowdown = p.slowdown
		toReference(rec.Metrics, p.slowdown)
		return rec, nil, nil
	}

	// Traced: tracing is on for every other pair of jobs (request cycles
	// on serve-mix), in ABBA order so that a drift in speed or library size
	// over the phase cancels out. The per-layer metrics come from the
	// traced jobs; comparing them with the untraced ones gives the tracing
	// overhead.
	tr := newTracer(fmt.Sprintf("%s/%d/", w.name, cfg.seed))
	s := &setupCtx{seed: cfg.seed, toy: cfg.toy, tr: tr}
	s.root = tr.begin("setup", 0, "setup")
	t0 := time.Now()
	e, err := w.setup(s)
	setupTime := time.Since(t0)
	tr.end(s.root, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	stopProbe := startProbe()
	p, err := timedPhase(w, e, cfg.limit(w), tr)
	proc := stopProbe()
	e.close()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	checkJobs(p.jobs, cfg.seed)
	rec.tally(p)
	rec.Metrics = perLayer(p, proc)
	rec.Metrics["template.load_share"] = metric{s.loadTime.Seconds() / setupTime.Seconds(), "ratio"}
	rec.Slowdown = p.slowdown
	toReference(rec.Metrics, p.slowdown)
	return rec, tr.finish(), nil
}

// tracedUnit reports whether unit u (a job, or a serve-mix request cycle)
// of a traced run is traced: units 1, 2, 5, 6, 9, 10, ….
func tracedUnit(u int) bool { return (u+1)>>1&1 == 1 }

// tally adds a phase's attempts and failures to the record.
func (r *runRecord) tally(p *phase) {
	r.Units = append(r.Units, p.counts...)
	for _, j := range p.jobs {
		r.Attempted++
		err := j.err
		if err == nil {
			err = j.mismatch
		}
		if err == nil {
			continue
		}
		r.Failed++
		if len(r.Errors) < maxErrors {
			r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", j.trace, err))
		}
	}
	r.Correct = r.Failed == 0
}

// endToEnd computes the metrics a user of the system sees, from an
// untraced phase. jj_total covers only the jobs of the first fixedUnits
// units, which every run completes, so that how many jobs a run finishes
// (its speed) cannot move it.
func endToEnd(w workload, p *phase, setupTimes []float64) map[string]metric {
	var lat []float64
	var verified int
	var jjs float64
	for _, j := range p.jobs {
		if !j.ok() {
			continue
		}
		verified++
		lat = append(lat, ms(j.latency))
		if j.unit < w.fixedUnits {
			jjs += float64(j.jjs)
		}
	}
	sort.Float64s(lat)
	return map[string]metric{
		"setup_s":     {median(setupTimes), "s"},
		"jobs_per_s":  {float64(verified) / p.wall.Seconds(), "1/s"},
		"job_p50_ms":  {percentile(lat, 50), "ms"},
		"job_tail_ms": {percentile(lat, w.tailPct), "ms"},
		"jj_total":    {jjs, "JJ"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// perLayer computes the per-layer metrics of a traced phase from its
// traced jobs. Times and counts are means per job that ran the pipeline
// (every library job; the cold requests of serve-mix), so runs of
// different length compare. Process, cache and library figures cover the
// whole phase.
func perLayer(p *phase, proc procDelta) map[string]metric {
	var n float64
	f := flowData{stages: map[string]time.Duration{}}
	var initial, final float64
	var reqLat, submit, queue, run, notify time.Duration
	var jobs int
	for _, j := range p.jobs {
		if !j.ok() || !j.traced {
			continue
		}
		jobs++
		if s := j.serve; s != nil {
			reqLat += j.latency
			submit += s.submit
			queue += s.queue
			run += s.run
			notify += s.notify
		}
		g := j.flow
		if g == nil {
			continue
		}
		n++
		f.add(g)
		if g.initialGates >= 0 {
			initial += float64(g.initialGates)
		}
		final += float64(g.finalGates)
	}
	n = math.Max(n, 1)
	stages := f.stages
	var staged time.Duration
	for _, d := range stages {
		staged += d
	}
	perJob := func(v int64) metric { return metric{float64(v) / n, "count"} }
	perJobMS := func(d time.Duration) metric { return metric{ms(d) / n, "ms"} }
	return map[string]metric{
		"flow.synth_ms":      perJobMS(f.synth),
		"flow.self_ms":       perJobMS(f.synth - staged),
		"aig.opt_ms":         perJobMS(stages["flow.aig_opt"]),
		"mig.resyn_ms":       perJobMS(stages["flow.mig_resyn"]),
		"rqfp.convert_ms":    perJobMS(stages["flow.convert"]),
		"rqfp.buffer_ms":     perJobMS(stages["flow.buffer"]),
		"rqfp.initial_gates": {initial / n, "count"},
		"rqfp.final_gates":   {final / n, "count"},

		"core.cgp_ms":               perJobMS(stages["flow.cgp"]),
		"core.cgp_share":            {ratio(float64(stages["flow.cgp"]), float64(f.synth)), "ratio"},
		"core.evaluations":          perJob(f.evals),
		"core.evals_per_s":          {ratio(float64(f.evals), stages["flow.cgp"].Seconds()), "1/s"},
		"core.dedup_skips":          perJob(f.dedup),
		"core.incremental_evals":    perJob(f.incremental),
		"core.full_evals":           perJob(f.full),
		"core.cone_gates_per_eval":  {ratio(float64(f.cone), float64(f.incremental)), "count"},
		"core.improvements":         perJob(f.improvements),
		"core.mutation_accept_rate": {ratio(float64(f.mutApplied), float64(f.mutAttempts)), "ratio"},
		"core.allocs_per_eval":      {ratio(float64(proc.mallocs), float64(f.evals)), "count"},
		"core.alloc_bytes_per_eval": {ratio(float64(proc.allocBytes), float64(f.evals)), "B"},

		"proc.cpu_util":     {ratio(proc.cpu.Seconds(), p.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio"},
		"proc.gc_cycles":    {float64(proc.gcCycles), "count"},
		"proc.gc_pause_ms":  {ms(proc.gcPause), "ms"},
		"proc.heap_peak_mb": {proc.heapPeak / (1 << 20), "MB"},

		"cec.checks":            perJob(f.checks),
		"cec.sim_refuted":       perJob(f.simRefuted),
		"cec.sim_refute_ratio":  {ratio(float64(f.simRefuted), float64(f.checks)), "ratio"},
		"cec.exhaustive_proved": perJob(f.exhaustive),
		"cec.sat_proved":        perJob(f.satProved),
		"cec.sat_refuted":       perJob(f.satRefuted),
		"cec.counterexamples":   perJob(f.counterexamples),
		"cec.sat_share":         {ratio(float64(f.satTime), float64(f.synth)), "ratio"},
		"sat.conflicts":         perJob(f.conflicts),
		"sat.decisions":         perJob(f.decisions),
		"sat.propagations":      perJob(f.propagations),

		"template.share":           {ratio(float64(stages["flow.template"]), float64(f.synth)), "ratio"},
		"template.windows":         perJob(f.tmplWindows),
		"template.hits":            perJob(f.tmplHits),
		"template.hit_ratio":       {ratio(float64(f.tmplHits), float64(f.tmplHits+f.tmplMisses)), "ratio"},
		"template.rewrites":        perJob(f.tmplRewrites),
		"template.rewrite_ratio":   {ratio(float64(f.tmplRewrites), float64(f.tmplHits)), "ratio"},
		"template.gates_saved":     perJob(f.tmplSaved),
		"template.learned":         perJob(f.tmplLearned),
		"template.library_entries": {float64(p.libEntries), "count"},

		"cache.hits":      {float64(p.cacheHits), "count"},
		"cache.misses":    {float64(p.cacheMiss), "count"},
		"cache.stores":    {float64(p.cacheStore), "count"},
		"cache.hit_ratio": {ratio(float64(p.cacheHits), float64(p.cacheHits+p.cacheMiss)), "ratio"},

		"serve.submit_share":     {ratio(float64(submit), float64(reqLat)), "ratio"},
		"serve.queue_wait_share": {ratio(float64(queue), float64(reqLat)), "ratio"},
		"serve.run_share":        {ratio(float64(run), float64(reqLat)), "ratio"},
		"serve.notify_share":     {ratio(float64(notify), float64(reqLat)), "ratio"},
		"serve.rejected":         {float64(p.rejected), "count"},

		"bench.jobs":           {float64(jobs), "count"},
		"bench.trace_overhead": {traceOverhead(p.jobs), "ratio"},
	}
}

// traceOverhead compares traced with untraced jobs of the same kind (the
// same design; on serve-mix, cold or cache hit): the geometric mean over
// kinds of mean traced over mean untraced latency, minus 1.
func traceOverhead(jobs []*job) float64 {
	type sums struct{ lat, n [2]float64 }
	kinds := map[string]*sums{}
	for _, j := range jobs {
		if !j.ok() {
			continue
		}
		kind := j.label
		switch {
		case j.serve != nil && j.fromCache:
			kind = "cache hit"
		case j.serve != nil:
			kind = "cold"
		}
		s := kinds[kind]
		if s == nil {
			s = &sums{}
			kinds[kind] = s
		}
		t := 0
		if j.traced {
			t = 1
		}
		s.lat[t] += j.latency.Seconds()
		s.n[t]++
	}
	var logSum, n float64
	for _, s := range kinds {
		if s.n[0] > 0 && s.n[1] > 0 {
			logSum += math.Log(s.lat[1] / s.n[1] / (s.lat[0] / s.n[0]))
			n++
		}
	}
	return math.Exp(ratio(logSum, n)) - 1
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method); a single value is all three.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
