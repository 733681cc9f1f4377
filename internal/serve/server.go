// Package serve is the synthesis-as-a-service layer: a priority job queue
// and scheduler that admits synthesis requests, bounds how many searches
// run concurrently (sharing the worker budget between them), checkpoints
// in-flight jobs so a crashed or evicted server resumes them on restart,
// and serves everything over a small HTTP/JSON API (see client for the
// wire types). Results flow through the NPN-canonical cache, so repeat
// submissions of a function — or of any NPN-equivalent variant — are
// answered without a search.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/buildinfo"
	"github.com/reversible-eda/rcgp/internal/obs"
)

// Config tunes a Server. The zero value serves with laptop defaults.
type Config struct {
	// MaxConcurrent bounds how many synthesis jobs run at once (default 2).
	MaxConcurrent int
	// TotalWorkers is the evaluation-goroutine budget shared by all
	// concurrent jobs (default GOMAXPROCS); each admitted job gets an
	// equal share. Results are bit-identical regardless of the split.
	TotalWorkers int
	// QueueLimit bounds the backlog; submissions beyond it are rejected
	// (default 256).
	QueueLimit int
	// DefaultGenerations applies when a request leaves Generations zero
	// (default: the library default).
	DefaultGenerations int
	// DefaultTimeout bounds jobs that set no timeout_ms (0 = unbounded).
	DefaultTimeout time.Duration
	// Cache, when non-nil, serves repeat functions without a search. The
	// server does not close it; the owner does.
	Cache *rcgp.Cache
	// Templates, when non-nil, runs the search-free template-rewrite pass
	// on every job (unless the request sets no_templates) and learns
	// scanned windows back into the library, shared across jobs.
	Templates *rcgp.TemplateLibrary
	// CheckpointDir persists in-flight job snapshots for crash recovery
	// ("" disables persistence; progress is still tracked in memory).
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence in generations (default 1000).
	CheckpointEvery int
	// FlightEvery is the default flight-recorder sampling cadence in
	// generations for jobs that leave Request.FlightEvery zero (default
	// 500; a request can override it or disable sampling with a negative
	// value). Sampling draws no randomness, so results stay bit-identical
	// per seed.
	FlightEvery int
	// FlightCap bounds the flight samples retained per job for the
	// /jobs/{id}/progress stream (default 2048; oldest evicted first).
	FlightCap int
	// Registry receives the server metrics (default obs.Default).
	Registry *obs.Registry
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
	// OnCheckpoint, when set, receives every job checkpoint as it is taken
	// (fleet runner mode: the agent forwards snapshots to the coordinator,
	// which can then hand the job to another node if this one dies). Called
	// synchronously from the evolution coordinator, so it must not block —
	// hand the snapshot to a goroutine.
	OnCheckpoint func(id string, req client.Request, cp client.Checkpoint)
	// RetryAfter is the backpressure hint sent in the Retry-After header of
	// queue-full 429 responses (default 2s).
	RetryAfter time.Duration
}

// retainedJobs bounds how many terminal jobs the server remembers: beyond
// it the oldest finished job is forgotten and its ID answers 404. Queued
// and running jobs are never forgotten.
const retainedJobs = 1024

// Errors mapped to HTTP statuses by the handler layer.
var (
	ErrDraining  = errors.New("serve: server is draining")
	ErrQueueFull = errors.New("serve: queue is full")
	ErrNotFound  = errors.New("serve: no such job")
)

// Server owns the job queue and scheduler. Create with New, attach
// Handler to an HTTP listener, and Drain on shutdown.
type Server struct {
	cfg  Config
	reg  *obs.Registry
	logf func(string, ...any)

	baseCtx context.Context
	stop    context.CancelFunc

	mu      sync.Mutex
	jobs    map[string]*job
	retired []*job // terminal jobs still in jobs, oldest first
	queue   jobQueue
	running int
	// finished counts every job that ever reached a terminal status,
	// forgotten ones included.
	finished int
	seq      int64
	draining bool

	kick      chan struct{}
	wg        sync.WaitGroup // running jobs
	schedDone chan struct{}
}

// New starts a server (and its scheduler goroutine). When
// Config.CheckpointDir holds snapshots from a previous process, the
// corresponding jobs are re-queued immediately, resuming from their last
// checkpoint.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.TotalWorkers <= 0 {
		cfg.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 256
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1000
	}
	if cfg.FlightEvery == 0 {
		cfg.FlightEvery = 500
	}
	if cfg.FlightCap <= 0 {
		cfg.FlightCap = 2048
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Registry,
		logf:      cfg.Logf,
		jobs:      make(map[string]*job),
		kick:      make(chan struct{}, 1),
		schedDone: make(chan struct{}),
	}
	if s.reg == nil {
		s.reg = obs.Default
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	if cfg.CheckpointDir != "" {
		s.recover()
	}
	go s.schedule()
	s.kickScheduler() // start any recovered jobs immediately
	return s
}

// recover re-queues jobs whose snapshots survived the previous process.
func (s *Server) recover() {
	for _, cf := range recoverCheckpoints(s.cfg.CheckpointDir, s.logf) {
		design, err := BuildDesign(cf.Request)
		if err != nil {
			continue // already filtered by recoverCheckpoints
		}
		cp := cf.Checkpoint
		j := &job{
			id:        cf.ID,
			req:       cf.Request,
			design:    design,
			status:    client.StatusQueued,
			submitted: cf.SubmittedAt,
			resume:    &cp,
			resumed:   true,

			cpGen:       cp.Generation,
			bestGates:   cp.Gates,
			bestGarbage: cp.Garbage,
			heapIndex:   -1,
		}
		s.initJobObs(j)
		if n, ok := jobSeq(cf.ID); ok {
			j.seq = n // recovered jobs keep their original FIFO order
			if n > s.seq {
				s.seq = n
			}
		}
		s.jobs[j.id] = j
		s.queue.push(j)
		s.reg.Counter("serve.jobs_recovered").Inc()
		s.logf("serve: recovered job %s at generation %d (gates=%d)", j.id, cp.Generation, cp.Gates)
	}
	s.reg.Gauge("serve.queue_depth").Set(int64(s.queue.Len()))
}

// initJobObs attaches the per-job observability state: a private metric
// registry (the search double-writes into it and the server registry), the
// flight log behind /jobs/{id}/progress, and — when the request opted in —
// the execution-trace capture buffer.
func (s *Server) initJobObs(j *job) {
	j.reg = obs.NewRegistry()
	j.flight = newFlightLog(s.cfg.FlightCap)
	if j.req.Trace {
		j.trace = newTraceBuf(0)
	}
}

// Submit validates and enqueues a request.
func (s *Server) Submit(req client.Request) (client.Job, error) {
	return s.submit(req, nil)
}

// SubmitHandoff enqueues a job relocated from another node, resuming from
// its last checkpoint (nil restarts the search — correct for jobs that died
// before their first snapshot). The resumed search reproduces the
// uninterrupted run's trajectory exactly, so the hand-off is invisible in
// the final netlist.
func (s *Server) SubmitHandoff(req client.Request, cp *client.Checkpoint) (client.Job, error) {
	var resume *rcgp.Checkpoint
	if cp != nil {
		if cp.Chromosome == "" {
			return client.Job{}, errors.New("serve: handoff checkpoint has no chromosome")
		}
		r := checkpointFromWire(*cp)
		resume = &r
	}
	j, err := s.submit(req, resume)
	if err == nil {
		s.reg.Counter("serve.handoffs_received").Inc()
	}
	return j, err
}

// maxLambda bounds a request's offspring count. The search allocates λ
// offspring slots, each holding a clone of the parent netlist, before its
// first generation, so an unchecked λ lets one request ask for tens of GB.
const maxLambda = 1024

func (s *Server) submit(req client.Request, resume *rcgp.Checkpoint) (client.Job, error) {
	if req.Lambda < 0 || req.Lambda > maxLambda {
		return client.Job{}, fmt.Errorf("lambda %d out of range 0..%d", req.Lambda, maxLambda)
	}
	design, err := BuildDesign(req)
	if err != nil {
		return client.Job{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return client.Job{}, ErrDraining
	}
	if s.queue.Len() >= s.cfg.QueueLimit {
		s.mu.Unlock()
		return client.Job{}, ErrQueueFull
	}
	s.seq++
	j := &job{
		id:        jobID(s.seq),
		seq:       s.seq,
		req:       req,
		design:    design,
		status:    client.StatusQueued,
		submitted: time.Now(),
		heapIndex: -1,
	}
	if resume != nil {
		j.resume = resume
		j.resumed = true
		j.cpGen = resume.Generation
		j.bestGates = resume.Gates
		j.bestGarbage = resume.Garbage
	}
	s.initJobObs(j)
	s.jobs[j.id] = j
	s.queue.push(j)
	s.reg.Counter("serve.jobs_submitted").Inc()
	s.reg.Gauge("serve.queue_depth").Set(int64(s.queue.Len()))
	w := j.wire()
	s.mu.Unlock()
	s.kickScheduler()
	return w, nil
}

// Job returns one job's state.
func (s *Server) Job(id string) (client.Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return client.Job{}, ErrNotFound
	}
	return j.wire(), nil
}

// Jobs lists every job the server remembers, newest submission first.
func (s *Server) Jobs() []client.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].seq != jobs[b].seq {
			return jobs[a].seq > jobs[b].seq
		}
		return jobs[a].id > jobs[b].id
	})
	out := make([]client.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.wire()
	}
	return out
}

// retireLocked settles a job that just reached a terminal status: its
// telemetry is frozen, so the API keeps rendering the same body, and the
// specification and live registry are released. Beyond retainedJobs
// terminal jobs the oldest is forgotten. Called with s.mu held.
func (s *Server) retireLocked(j *job) {
	s.finished++
	if !j.started.IsZero() {
		j.tel = j.telemetry()
	}
	j.design, j.reg = nil, nil
	s.retired = append(s.retired, j)
	if len(s.retired) > retainedJobs {
		delete(s.jobs, s.retired[0].id)
		s.retired[0] = nil
		s.retired = s.retired[1:]
	}
}

// Cancel aborts a queued or running job. Terminal jobs are left as-is.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	switch j.status {
	case client.StatusQueued:
		s.queue.remove(j)
		j.status = client.StatusCanceled
		j.finished = time.Now()
		s.retireLocked(j)
		s.reg.Counter("serve.jobs_canceled").Inc()
		s.reg.Gauge("serve.queue_depth").Set(int64(s.queue.Len()))
		s.mu.Unlock()
		j.flight.close()
		if s.cfg.CheckpointDir != "" {
			removeCheckpoint(s.cfg.CheckpointDir, id)
		}
		return nil
	case client.StatusRunning:
		j.canceled = true
		cancel := j.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		s.mu.Unlock()
		return nil
	}
}

// Health summarizes the server state.
func (s *Server) Health() client.Health {
	s.mu.Lock()
	h := client.Health{
		Status:    "ok",
		Queued:    s.queue.Len(),
		Running:   s.running,
		Finished:  s.finished,
		Version:   buildinfo.Version(),
		Revision:  buildinfo.Revision(),
		GoVersion: buildinfo.GoVersion(),
	}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	if s.cfg.Cache != nil {
		cs := s.cfg.Cache.Stats()
		h.Cache = &client.CacheStats{
			Hits: cs.Hits, Misses: cs.Misses, Stores: cs.Stores,
			BadEntries: cs.BadEntries, MemEntries: cs.MemEntries,
			DiskEntries: cs.DiskEntries, DiskPromotes: cs.DiskPromotes,
			Merges: cs.Merges, MergeSkips: cs.MergeSkips, MergeRejects: cs.MergeRejects,
		}
	}
	if s.cfg.Templates != nil {
		ts := s.cfg.Templates.Stats()
		h.Templates = &client.TemplateStats{
			Entries: ts.Entries, Hits: ts.Hits, Misses: ts.Misses,
			Learned: ts.Learned, Rejects: ts.Rejects,
			Merges: ts.Merges, MergeSkips: ts.MergeSkips, MergeRejects: ts.MergeRejects,
		}
	}
	return h
}

// Drain stops admitting work, cancels queued jobs, winds the running
// searches down to their best-so-far circuits, and waits for them (or ctx).
// Checkpoints of wound-down jobs are kept on disk, so the next process
// resumes them; user-canceled and completed jobs leave none behind.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for s.queue.Len() > 0 {
			j := s.queue.pop()
			// Keep the snapshot: a queued recovered job still resumes later.
			if j.resume == nil && s.cfg.CheckpointDir != "" {
				removeCheckpoint(s.cfg.CheckpointDir, j.id)
			}
			j.status = client.StatusCanceled
			j.errMsg = "server draining"
			j.finished = time.Now()
			s.retireLocked(j)
			j.flight.close()
		}
		s.reg.Gauge("serve.queue_depth").Set(0)
		for _, j := range s.jobs {
			if j.status == client.StatusRunning && j.cancel != nil {
				j.cancel()
			}
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// Close drains with the given context and stops the scheduler.
func (s *Server) Close(ctx context.Context) error {
	err := s.Drain(ctx)
	s.stop()
	<-s.schedDone
	return err
}

func (s *Server) kickScheduler() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// schedule is the admission loop: whenever capacity frees up or work
// arrives, start the highest-priority queued job.
func (s *Server) schedule() {
	defer close(s.schedDone)
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.kick:
		}
		for {
			s.mu.Lock()
			if s.draining || s.running >= s.cfg.MaxConcurrent || s.queue.Len() == 0 {
				s.mu.Unlock()
				break
			}
			j := s.queue.pop()
			j.status = client.StatusRunning
			j.started = time.Now()
			s.running++
			workers := s.cfg.TotalWorkers / s.cfg.MaxConcurrent
			if workers < 1 {
				workers = 1
			}
			s.reg.Gauge("serve.queue_depth").Set(int64(s.queue.Len()))
			s.reg.Gauge("serve.jobs_running").Set(int64(s.running))
			s.mu.Unlock()
			s.wg.Add(1)
			go s.runJob(j, workers)
		}
	}
}

// options maps a request onto library options for one job.
func (s *Server) options(j *job, workers int) rcgp.Options {
	req := j.req
	opt := rcgp.Options{
		Generations:  req.Generations,
		Lambda:       req.Lambda,
		MutationRate: req.MutationRate,
		Seed:         req.Seed,
		Workers:      workers,
	}
	if opt.Generations == 0 {
		opt.Generations = s.cfg.DefaultGenerations
	}
	if !req.NoCache {
		opt.Cache = s.cfg.Cache
	}
	if !req.NoTemplates {
		opt.Templates = s.cfg.Templates
	}
	opt.CheckpointEvery = s.cfg.CheckpointEvery
	opt.CheckpointSink = func(cp rcgp.Checkpoint) { s.noteCheckpoint(j, cp) }
	if j.resume != nil {
		opt.Resume = j.resume
	}
	// Flight recorder: the request overrides the server default; negative
	// disables sampling for this job.
	every := s.cfg.FlightEvery
	if req.FlightEvery != 0 {
		every = req.FlightEvery
	}
	if every > 0 {
		opt.FlightEvery = every
		opt.FlightCap = s.cfg.FlightCap
		opt.FlightSink = func(fs rcgp.FlightSample) { j.flight.append(wireFlight(fs)) }
	}
	if j.trace != nil {
		opt.Trace = j.trace
	}
	return opt
}

// noteCheckpoint records best-so-far progress and persists the snapshot.
// Called synchronously from the evolution coordinator, so it must be quick:
// one small JSON file write.
func (s *Server) noteCheckpoint(j *job, cp rcgp.Checkpoint) {
	s.mu.Lock()
	j.cpGen = cp.Generation
	j.bestGates = cp.Gates
	j.bestGarbage = cp.Garbage
	s.mu.Unlock()
	s.reg.Counter("serve.checkpoints").Inc()
	if s.cfg.OnCheckpoint != nil {
		s.cfg.OnCheckpoint(j.id, j.req, checkpointToWire(cp))
	}
	if s.cfg.CheckpointDir == "" {
		return
	}
	cf := checkpointFile{ID: j.id, Request: j.req, SubmittedAt: j.submitted, Checkpoint: cp}
	if err := writeCheckpoint(s.cfg.CheckpointDir, cf); err != nil {
		s.logf("serve: checkpoint %s: %v", j.id, err)
	}
}

// checkpointToWire / checkpointFromWire translate between the library's
// checkpoint and the fleet wire form — field-for-field, so a snapshot taken
// on one node resumes losslessly on another.
func checkpointToWire(cp rcgp.Checkpoint) client.Checkpoint {
	return client.Checkpoint{
		Generation: cp.Generation, Evaluations: cp.Evaluations,
		Seed: cp.Seed, Lambda: cp.Lambda, Chromosome: cp.Chromosome,
		Gates: cp.Gates, Garbage: cp.Garbage, Buffers: cp.Buffers,
	}
}

func checkpointFromWire(cp client.Checkpoint) rcgp.Checkpoint {
	return rcgp.Checkpoint{
		Generation: cp.Generation, Evaluations: cp.Evaluations,
		Seed: cp.Seed, Lambda: cp.Lambda, Chromosome: cp.Chromosome,
		Gates: cp.Gates, Garbage: cp.Garbage, Buffers: cp.Buffers,
	}
}

// runJob executes one admitted job to completion.
func (s *Server) runJob(j *job, workers int) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(s.baseCtx)
	if d := s.jobTimeout(j); d > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, d)
	}
	defer cancel()
	s.mu.Lock()
	j.cancel = cancel
	s.mu.Unlock()

	// Every metric the pipeline records fans out to the job's private
	// registry (served on GET /jobs/{id}) and the server registry (the
	// cross-job aggregate behind /metrics).
	ctx = obs.WithScope(ctx, obs.NewScope(j.reg, s.reg))
	res, err := j.design.SynthesizeContext(ctx, s.options(j, workers))
	var result *client.Result
	if err == nil {
		result = s.wireResult(j, res)
	}

	s.mu.Lock()
	j.cancel = nil
	j.finished = time.Now()
	if err == nil {
		j.stages = wireStages(res.Telemetry)
		if t := res.Telemetry.Template; t != nil {
			j.template = &client.TemplateReport{
				Rounds:     t.Rounds,
				Windows:    t.Windows,
				Hits:       t.Hits,
				Misses:     t.Misses,
				Rewrites:   t.Rewrites,
				GatesSaved: t.GatesSaved,
				Learned:    t.Learned,
			}
		}
	}
	// A job counts as drain-interrupted only if the drain actually cut its
	// context short — one that completed before the drain is simply done.
	drained := s.draining && !j.canceled && ctx.Err() != nil
	switch {
	case err != nil && (j.canceled || drained):
		j.status = client.StatusCanceled
		j.errMsg = "canceled before a circuit was available"
		s.reg.Counter("serve.jobs_canceled").Inc()
	case err != nil:
		j.status = client.StatusFailed
		j.errMsg = err.Error()
		s.reg.Counter("serve.jobs_failed").Inc()
	case !result.Verified:
		j.status = client.StatusFailed
		j.errMsg = "result failed formal verification"
		j.result = result
		s.reg.Counter("serve.jobs_failed").Inc()
	case j.canceled || drained:
		// Wind-down: the best-so-far circuit is still a valid answer.
		j.status = client.StatusCanceled
		j.result = result
		s.reg.Counter("serve.jobs_canceled").Inc()
	default:
		j.status = client.StatusDone
		j.result = result
		s.reg.Counter("serve.jobs_done").Inc()
		if result.FromCache {
			s.reg.Counter("serve.cache_served").Inc()
		}
	}
	s.running--
	s.retireLocked(j)
	s.reg.Gauge("serve.jobs_running").Set(int64(s.running))
	s.reg.Histogram("serve.job_runtime").Observe(j.finished.Sub(j.started))
	keepSnapshot := drained && j.status == client.StatusCanceled
	s.mu.Unlock()
	j.flight.close() // after the terminal status is published: wakes progress streams

	// A drain wind-down keeps its snapshot so the next process resumes the
	// search; every other outcome is final and cleans up.
	if s.cfg.CheckpointDir != "" && !keepSnapshot {
		removeCheckpoint(s.cfg.CheckpointDir, j.id)
	}
	s.kickScheduler()
}

func (s *Server) jobTimeout(j *job) time.Duration {
	if j.req.TimeoutMS > 0 {
		return time.Duration(j.req.TimeoutMS) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

// wireResult renders a library result for the API, re-verifying the
// circuit against the job's specification. Cache hits were already
// verified inside Synthesize; this second check also covers search
// results, so every served netlist is vouched for by the SAT oracle.
func (s *Server) wireResult(j *job, res *rcgp.Result) *client.Result {
	verified, verr := j.design.Verify(res.Circuit())
	if verr != nil {
		verified = false
	}
	st := res.Stats()
	var sb strings.Builder
	if err := res.Circuit().WriteText(&sb); err != nil {
		verified = false
	}
	return &client.Result{
		Netlist: sb.String(),
		Stats: client.Stats{
			Inputs: st.Inputs, Outputs: st.Outputs, Gates: st.Gates,
			Buffers: st.Buffers, JJs: st.JJs, Depth: st.Depth, Garbage: st.Garbage,
		},
		Generations: res.Generations,
		Evaluations: res.Evaluations,
		RuntimeMS:   res.Runtime.Milliseconds(),
		FromCache:   res.FromCache,
		CacheKey:    res.CacheKey,
		Verified:    verified,
		StopReason:  res.Telemetry.StopReason,
	}
}

// Benchmarks lists the built-in benchmark circuits (sorted).
func (s *Server) Benchmarks() []string {
	names := rcgp.BenchmarkNames()
	sort.Strings(names) // contractually sorted already; cheap to guarantee
	return names
}
