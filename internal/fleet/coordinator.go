package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/serve"
)

// CoordinatorConfig tunes a Coordinator. The zero value works for tests;
// cmd/rcgp-fleet sets the operational knobs.
type CoordinatorConfig struct {
	// HeartbeatEvery is the cadence runners are told to heartbeat at and
	// the supervisor's scan interval (default 1s).
	HeartbeatEvery time.Duration
	// HeartbeatMiss is how many missed heartbeats mark a runner dead and
	// trigger hand-off of its jobs (default 3).
	HeartbeatMiss int
	// Replicas is the virtual-node count per runner on the hash ring
	// (default 64).
	Replicas int
	// Registry receives the coordinator metrics (default obs.Default).
	Registry *obs.Registry
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
	// HTTPClient talks to runners (default http.DefaultClient).
	HTTPClient *http.Client
}

// Errors mapped to HTTP statuses by the coordinator handler.
var (
	ErrNoRunners = errors.New("fleet: no healthy runner available")
	ErrNotFound  = errors.New("fleet: no such job")
)

// runnerState is the coordinator's view of one registered runner.
type runnerState struct {
	id       string
	url      string
	c        *client.Client
	lastSeen time.Time
	health   client.Health
	dead     bool
}

// fleetJob maps one coordinator-scoped job onto wherever it currently
// runs. The coordinator assigns its own IDs ("f000001"): a job keeps its
// identity across hand-offs even though each runner assigns it a fresh
// local ID.
type fleetJob struct {
	id        string
	key       string // shard key on the hash ring
	req       client.Request
	runnerID  string
	runnerJob string // the job's ID on that runner
	// checkpoint is the latest snapshot forwarded by the owning runner —
	// the resume point if that runner dies.
	checkpoint *client.Checkpoint
	// last is the most recent known wire state, already rewritten to the
	// coordinator's ID; served when the owner is unreachable.
	last     client.Job
	handoffs int
	terminal bool
	// orphan: no runner could take the job yet; the supervisor retries.
	orphan bool
	// migrating: a hand-off or steal is relocating the job right now —
	// status reads from the old owner must not be adopted.
	migrating bool
	// canceled: the client asked to cancel, so a job its runner has
	// forgotten ends canceled instead of running again.
	canceled bool
}

// Coordinator owns the runner table, the hash ring, the fleet job table,
// and the canonical-result replication log. Create with NewCoordinator,
// attach Handler to a listener, Close on shutdown.
type Coordinator struct {
	cfg  CoordinatorConfig
	reg  *obs.Registry
	logf func(string, ...any)
	hc   *http.Client

	mu      sync.Mutex
	runners map[string]*runnerState
	ring    *ring
	jobs    map[string]*fleetJob
	byOwner map[string]*fleetJob // runnerID+"\x00"+runnerJob → job
	order   []*fleetJob          // submission order, for listing
	seq     int64
	entries []client.CacheEntry // replication log, append-only
	known   map[string]bool     // replication-log keys
	// templates is the identity-template replication log; templateIdx maps
	// class key → slot, so a cheaper implementation of an already-known
	// class replaces its log entry instead of appending a duplicate.
	templates   []client.TemplateEntry
	templateIdx map[string]int
	// closed is set by Close; no background goroutine starts after it.
	closed bool

	// ctx is canceled by Close, and bg counts the background goroutines
	// (replication fan-outs, old-owner cancels) Close waits for.
	ctx    context.Context
	cancel context.CancelFunc
	bg     sync.WaitGroup

	stop chan struct{}
	done chan struct{}
}

// NewCoordinator starts a coordinator and its supervisor loop.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.HeartbeatMiss <= 0 {
		cfg.HeartbeatMiss = 3
	}
	co := &Coordinator{
		cfg:         cfg,
		reg:         cfg.Registry,
		logf:        cfg.Logf,
		hc:          cfg.HTTPClient,
		runners:     make(map[string]*runnerState),
		ring:        newRing(cfg.Replicas),
		jobs:        make(map[string]*fleetJob),
		byOwner:     make(map[string]*fleetJob),
		known:       make(map[string]bool),
		templateIdx: make(map[string]int),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	if co.reg == nil {
		co.reg = obs.Default
	}
	if co.logf == nil {
		co.logf = func(string, ...any) {}
	}
	if co.hc == nil {
		co.hc = http.DefaultClient
	}
	co.ctx, co.cancel = context.WithCancel(context.Background())
	go co.supervise()
	return co
}

// Close stops the supervisor, cancels the coordinator's outgoing requests,
// and waits for its background goroutines, so nothing posts or logs after
// it returns. Runners keep serving their jobs; a new coordinator picks the
// fleet back up when they re-register.
func (co *Coordinator) Close() {
	co.mu.Lock()
	co.closed = true
	co.mu.Unlock()
	co.cancel()
	close(co.stop)
	<-co.done
	co.bg.Wait()
}

// goLocked runs f on a background goroutine whose context Close cancels
// and which Close waits for. Once Close has begun it starts nothing.
// co.mu must be held.
func (co *Coordinator) goLocked(f func(ctx context.Context)) {
	if co.closed {
		return
	}
	co.bg.Add(1)
	go func() {
		defer co.bg.Done()
		f(co.ctx)
	}()
}

func ownerKey(runnerID, runnerJob string) string {
	return runnerID + "\x00" + runnerJob
}

// shardKey is the value jobs are consistent-hashed on: the NPN-canonical
// cache key of the requested function, so that every NPN-equivalent
// submission routes to the shard whose cache can answer it. Designs
// outside the cacheable range fall back to a digest of the functional
// spec (same function → same shard, still deterministic).
func shardKey(req client.Request) (string, error) {
	d, err := serve.BuildDesign(req)
	if err != nil {
		return "", err
	}
	if key, err := d.CacheKey(); err == nil {
		return key, nil
	}
	spec := client.Request{
		Benchmark: req.Benchmark, Format: req.Format, Source: req.Source,
		NumInputs: req.NumInputs, TruthTables: req.TruthTables,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("req:%x", sum[:16]), nil
}

// runnerClient builds the coordinator-side client for one runner: a small
// retry budget so one dropped packet doesn't condemn a healthy node, but
// short enough that the supervisor's death verdict stays timely.
func (co *Coordinator) runnerClient(url string) *client.Client {
	c := client.New(url)
	c.HTTPClient = co.hc
	c.MaxRetries = 2
	c.RetryBase = 50 * time.Millisecond
	return c
}

// Register admits a runner (or refreshes one that restarted or was
// presumed dead) and returns the replication log so it starts warm.
func (co *Coordinator) Register(rr registerRequest) (registerResponse, error) {
	if rr.ID == "" || rr.URL == "" {
		return registerResponse{}, errors.New("fleet: register needs id and url")
	}
	co.mu.Lock()
	rs := co.runners[rr.ID]
	if rs == nil {
		rs = &runnerState{id: rr.ID}
		co.runners[rr.ID] = rs
	}
	rs.url = rr.URL
	rs.c = co.runnerClient(rr.URL)
	rs.lastSeen = time.Now()
	rs.dead = false
	co.ring.add(rr.ID)
	resp := registerResponse{
		HeartbeatMS: co.cfg.HeartbeatEvery.Milliseconds(),
		Entries:     append([]client.CacheEntry(nil), co.entries...),
		Templates:   append([]client.TemplateEntry(nil), co.templates...),
	}
	co.updateTopologyGaugesLocked()
	co.mu.Unlock()
	co.reg.Counter("fleet.registers").Inc()
	co.logf("fleet: runner %s registered at %s", rr.ID, rr.URL)
	return resp, nil
}

// Heartbeat refreshes a runner's liveness and load view. An unknown ID is
// an error (mapped to 404), telling the runner to re-register — the shape
// of a coordinator restart.
func (co *Coordinator) Heartbeat(hb heartbeatRequest) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	rs := co.runners[hb.ID]
	if rs == nil {
		return ErrNotFound
	}
	rs.lastSeen = time.Now()
	rs.health = hb.Health
	if rs.dead {
		rs.dead = false
		co.ring.add(rs.id)
		co.updateTopologyGaugesLocked()
		co.logf("fleet: runner %s back from the dead", rs.id)
	}
	co.reg.Counter("fleet.heartbeats").Inc()
	return nil
}

// Submit shards the request onto a runner and records the mapping. If the
// shard owner refuses (full queue, draining, unreachable), placement
// walks the ring to the next healthy node rather than failing the job.
func (co *Coordinator) Submit(ctx context.Context, req client.Request) (client.Job, error) {
	key, err := shardKey(req)
	if err != nil {
		return client.Job{}, err
	}
	tried := make(map[string]bool)
	for {
		rs := co.pickOwner(key, tried)
		if rs == nil {
			return client.Job{}, ErrNoRunners
		}
		j, err := rs.c.Submit(ctx, req)
		if err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.StatusCode < 500 &&
				apiErr.StatusCode != http.StatusTooManyRequests {
				return client.Job{}, err // the request itself is bad
			}
			tried[rs.id] = true
			co.reg.Counter("fleet.placement_retries").Inc()
			continue
		}
		co.mu.Lock()
		co.seq++
		fj := &fleetJob{
			id:        fmt.Sprintf("f%06d", co.seq),
			key:       key,
			req:       req,
			runnerID:  rs.id,
			runnerJob: j.ID,
		}
		fj.last = rewriteJob(j, fj)
		co.jobs[fj.id] = fj
		co.byOwner[ownerKey(rs.id, j.ID)] = fj
		co.order = append(co.order, fj)
		w := fj.last
		co.updateJobGaugesLocked()
		co.mu.Unlock()
		co.reg.Counter("fleet.jobs_submitted").Inc()
		return w, nil
	}
}

// pickOwner walks the ring from the key's shard to the first runner that
// is alive and not already tried this placement.
func (co *Coordinator) pickOwner(key string, tried map[string]bool) *runnerState {
	co.mu.Lock()
	defer co.mu.Unlock()
	id := co.ring.ownerAvoiding(key, func(node string) bool {
		rs := co.runners[node]
		return rs == nil || rs.dead || tried[node]
	})
	if id == "" {
		return nil
	}
	return co.runners[id]
}

// rewriteJob renders a runner's view of a job as the coordinator's: the
// fleet ID replaces the runner-local one, and a job that has been handed
// off at least once stays marked resumed.
func rewriteJob(j client.Job, fj *fleetJob) client.Job {
	j.ID = fj.id
	if fj.handoffs > 0 {
		j.Resumed = true
	}
	return j
}

// Job returns one job's state, proxied live from its current owner; the
// last known state answers when the owner is unreachable or the job is
// mid-relocation.
func (co *Coordinator) Job(ctx context.Context, id string) (client.Job, error) {
	co.mu.Lock()
	fj, ok := co.jobs[id]
	if !ok {
		co.mu.Unlock()
		return client.Job{}, ErrNotFound
	}
	rs := co.runners[fj.runnerID]
	if fj.terminal || fj.orphan || fj.migrating || rs == nil || rs.dead {
		w := fj.last
		co.mu.Unlock()
		return w, nil
	}
	c, runnerJob := rs.c, fj.runnerJob
	co.mu.Unlock()

	j, err := c.Job(ctx, runnerJob)
	co.mu.Lock()
	defer co.mu.Unlock()
	if err != nil || fj.runnerJob != runnerJob {
		// Owner unreachable, or the job moved while we asked: stale answer.
		if err != nil {
			co.reg.Counter("fleet.proxy_errors").Inc()
		}
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound && fj.runnerJob == runnerJob {
			co.lostLocked(fj)
		}
		return fj.last, nil
	}
	return co.adoptJobStateLocked(fj, j), nil
}

// lostLocked handles a runner that answers 404 for a job the coordinator
// still holds as live. Runners remember only their newest finished jobs,
// so the job ended and was forgotten before anyone polled it (or the
// runner restarted without it). A canceled job ends canceled; any other
// becomes an orphan, and the supervisor resumes it from its last
// checkpoint on the ring's choice, the same runner included, so it still
// reaches one verified terminal result, bit-identical per seed.
func (co *Coordinator) lostLocked(fj *fleetJob) {
	if fj.terminal || fj.orphan || fj.migrating {
		return
	}
	if fj.canceled {
		fj.terminal = true
		fj.last.Status = client.StatusCanceled
		co.updateJobGaugesLocked()
		return
	}
	co.logf("fleet: runner %s forgot live job %s, resuming it", fj.runnerID, fj.id)
	co.orphanLocked(fj)
}

// adoptJobStateLocked folds a fresh owner-side job state into the fleet
// job and returns the rewritten wire form. Terminal states are ignored
// while the job is migrating — a steal cancels the old copy, and that
// "canceled" must not leak to the client.
func (co *Coordinator) adoptJobStateLocked(fj *fleetJob, j client.Job) client.Job {
	w := rewriteJob(j, fj)
	if fj.migrating && j.Status.Terminal() {
		return fj.last
	}
	fj.last = w
	if j.Status.Terminal() && !fj.terminal {
		fj.terminal = true
		co.reg.Counter("fleet.jobs_finished").Inc()
		if j.Result != nil && j.Result.FromCache {
			co.reg.Counter("fleet.cache_served").Inc()
		}
		co.updateJobGaugesLocked()
	}
	return w
}

// Jobs lists every fleet job, newest first. Live states are fetched per
// runner (one /jobs listing each), falling back to last known.
func (co *Coordinator) Jobs(ctx context.Context) []client.Job {
	co.mu.Lock()
	targets := make(map[string]*client.Client)
	for id, rs := range co.runners {
		if !rs.dead {
			targets[id] = rs.c
		}
	}
	co.mu.Unlock()

	for runnerID, c := range targets {
		js, err := c.Jobs(ctx)
		if err != nil {
			co.reg.Counter("fleet.proxy_errors").Inc()
			continue
		}
		co.mu.Lock()
		for _, j := range js {
			if fj, ok := co.byOwner[ownerKey(runnerID, j.ID)]; ok && fj.runnerID == runnerID {
				co.adoptJobStateLocked(fj, j)
			}
		}
		co.mu.Unlock()
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]client.Job, 0, len(co.order))
	for i := len(co.order) - 1; i >= 0; i-- {
		out = append(out, co.order[i].last)
	}
	return out
}

// Cancel aborts a fleet job wherever it currently runs.
func (co *Coordinator) Cancel(ctx context.Context, id string) error {
	co.mu.Lock()
	fj, ok := co.jobs[id]
	if !ok {
		co.mu.Unlock()
		return ErrNotFound
	}
	if fj.terminal {
		co.mu.Unlock()
		return nil
	}
	if fj.orphan {
		fj.orphan = false
		fj.terminal = true
		fj.last.Status = client.StatusCanceled
		co.updateJobGaugesLocked()
		co.mu.Unlock()
		return nil
	}
	fj.canceled = true
	rs := co.runners[fj.runnerID]
	runnerJob := fj.runnerJob
	co.mu.Unlock()
	if rs == nil {
		return ErrNotFound
	}
	return rs.c.Cancel(ctx, runnerJob)
}

// Health aggregates the fleet: queue depths from runner heartbeats, the
// coordinator's own finished count, summed cache counters, and topology.
func (co *Coordinator) Health() client.Health {
	co.mu.Lock()
	defer co.mu.Unlock()
	h := client.Health{Status: "degraded"}
	var cache client.CacheStats
	var templates client.TemplateStats
	haveCache, haveTemplates := false, false
	for _, rs := range co.runners {
		h.Runners++
		if rs.dead {
			continue
		}
		h.RunnersHealthy++
		h.Status = "ok"
		h.Queued += rs.health.Queued
		h.Running += rs.health.Running
		if cs := rs.health.Cache; cs != nil {
			haveCache = true
			cache.Hits += cs.Hits
			cache.Misses += cs.Misses
			cache.Stores += cs.Stores
			cache.BadEntries += cs.BadEntries
			cache.MemEntries += cs.MemEntries
			cache.DiskEntries += cs.DiskEntries
			cache.DiskPromotes += cs.DiskPromotes
			cache.Merges += cs.Merges
			cache.MergeSkips += cs.MergeSkips
			cache.MergeRejects += cs.MergeRejects
		}
		if ts := rs.health.Templates; ts != nil {
			haveTemplates = true
			templates.Entries += ts.Entries
			templates.Hits += ts.Hits
			templates.Misses += ts.Misses
			templates.Learned += ts.Learned
			templates.Rejects += ts.Rejects
			templates.Merges += ts.Merges
			templates.MergeSkips += ts.MergeSkips
			templates.MergeRejects += ts.MergeRejects
		}
	}
	for _, fj := range co.jobs {
		if fj.terminal {
			h.Finished++
		}
	}
	if haveCache {
		h.Cache = &cache
	}
	if haveTemplates {
		h.Templates = &templates
	}
	return h
}

// Runners reports the registration table, sorted by ID.
func (co *Coordinator) Runners() []client.RunnerInfo {
	co.mu.Lock()
	defer co.mu.Unlock()
	inflight := make(map[string]int)
	for _, fj := range co.jobs {
		if !fj.terminal && !fj.orphan {
			inflight[fj.runnerID]++
		}
	}
	out := make([]client.RunnerInfo, 0, len(co.runners))
	for _, rs := range co.runners {
		out = append(out, client.RunnerInfo{
			ID:         rs.id,
			URL:        rs.url,
			Healthy:    !rs.dead,
			LastSeenMS: time.Since(rs.lastSeen).Milliseconds(),
			Jobs:       inflight[rs.id],
			Queued:     rs.health.Queued,
			Running:    rs.health.Running,
			Finished:   rs.health.Finished,
			Cache:      rs.health.Cache,
			Templates:  rs.health.Templates,
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// PublishEntry appends a runner's canonical result to the replication log
// and fans it out to every other live shard. Each receiving runner
// re-verifies the entry before adopting it, so replication spreads work,
// never trust.
func (co *Coordinator) PublishEntry(pr publishRequest) {
	co.mu.Lock()
	if co.known[pr.Entry.Key] {
		co.mu.Unlock()
		return
	}
	co.known[pr.Entry.Key] = true
	co.entries = append(co.entries, pr.Entry)
	var targets []*client.Client
	for id, rs := range co.runners {
		if id != pr.Runner && !rs.dead {
			targets = append(targets, rs.c)
		}
	}
	co.reg.Gauge("fleet.replication_log").Set(int64(len(co.entries)))
	co.reg.Counter("fleet.entries_published").Inc()
	co.goLocked(func(ctx context.Context) {
		co.fanOut(ctx, targets, "/fleet/cache", pr.Entry, pr.Entry.Key,
			"fleet.entries_replicated", "fleet.replication_errors")
	})
	co.mu.Unlock()
}

// PublishTemplate folds a runner's learned identity template into the
// template replication log — first implementation of a class wins its
// slot, a strictly cheaper one replaces it — and fans the improvement out
// to every other live node. Receivers re-verify before adopting, so
// replication spreads work, never trust.
func (co *Coordinator) PublishTemplate(tr templatePublishRequest) {
	co.mu.Lock()
	if i, ok := co.templateIdx[tr.Entry.Key]; ok && co.templates[i].Gates <= tr.Entry.Gates {
		co.mu.Unlock()
		return
	} else if ok {
		co.templates[i] = tr.Entry
	} else {
		co.templateIdx[tr.Entry.Key] = len(co.templates)
		co.templates = append(co.templates, tr.Entry)
	}
	var targets []*client.Client
	for id, rs := range co.runners {
		if id != tr.Runner && !rs.dead {
			targets = append(targets, rs.c)
		}
	}
	co.reg.Gauge("fleet.template_log").Set(int64(len(co.templates)))
	co.reg.Counter("fleet.templates_published").Inc()
	co.goLocked(func(ctx context.Context) {
		co.fanOut(ctx, targets, "/fleet/template", tr.Entry, "template "+tr.Entry.Key,
			"fleet.templates_replicated", "fleet.template_replication_errors")
	})
	co.mu.Unlock()
}

// fanOut posts one replication payload to path on every target, counting
// deliveries and failures. It stops quietly once ctx is canceled.
func (co *Coordinator) fanOut(ctx context.Context, targets []*client.Client, path string, payload any, what, okCounter, errCounter string) {
	for _, c := range targets {
		err := co.postJSON(ctx, c.BaseURL+path, payload, nil)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			co.reg.Counter(errCounter).Inc()
			co.logf("fleet: replicating %s: %v", what, err)
			continue
		}
		co.reg.Counter(okCounter).Inc()
	}
}

// PublishCheckpoint records the latest snapshot of a fleet job so the
// supervisor can relocate it if its runner dies. Checkpoints of jobs the
// coordinator doesn't manage (submitted to the runner directly) are
// ignored.
func (co *Coordinator) PublishCheckpoint(cr checkpointRequest) {
	co.mu.Lock()
	defer co.mu.Unlock()
	fj, ok := co.byOwner[ownerKey(cr.Runner, cr.JobID)]
	if !ok || fj.runnerID != cr.Runner || fj.terminal {
		return
	}
	cp := cr.Checkpoint
	fj.checkpoint = &cp
	fj.last.CheckpointGeneration = cp.Generation
	fj.last.BestGates = cp.Gates
	fj.last.BestGarbage = cp.Garbage
	co.reg.Counter("fleet.checkpoints").Inc()
}

// postJSON is the coordinator-to-runner push primitive (replication and
// hand-off payloads ride on it). It decodes a 2xx response body into out
// unless out is nil.
func (co *Coordinator) postJSON(ctx context.Context, url string, v, out any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := co.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("fleet: %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// supervise is the control loop: detect dead runners, relocate their
// jobs, retry orphans, and steal work for idle nodes.
func (co *Coordinator) supervise() {
	defer close(co.done)
	t := time.NewTicker(co.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
		}
		co.reapDead()
		co.placeOrphans()
		co.stealWork()
	}
}

// reapDead marks runners that stopped heartbeating, removes them from the
// ring, and hands their in-flight jobs to surviving nodes.
func (co *Coordinator) reapDead() {
	deadline := time.Duration(co.cfg.HeartbeatMiss) * co.cfg.HeartbeatEvery
	var stranded []*fleetJob
	co.mu.Lock()
	for _, rs := range co.runners {
		if rs.dead || time.Since(rs.lastSeen) <= deadline {
			continue
		}
		rs.dead = true
		co.ring.remove(rs.id)
		co.reg.Counter("fleet.runner_deaths").Inc()
		co.logf("fleet: runner %s missed %d heartbeats, handing its jobs off", rs.id, co.cfg.HeartbeatMiss)
		for _, fj := range co.jobs {
			if fj.runnerID == rs.id && !fj.terminal && !fj.orphan {
				fj.migrating = true
				stranded = append(stranded, fj)
			}
		}
	}
	co.updateTopologyGaugesLocked()
	co.mu.Unlock()
	for _, fj := range stranded {
		co.relocate(fj, "fleet.handoffs")
	}
}

// relocate moves one job to the ring's first live runner for its key,
// resuming from its last checkpoint (or from generation zero if none was
// taken — bit-identical per seed either way). A dead owner is off the
// ring; a live one (which forgot the job) may take it back. On failure
// the job becomes an orphan and the supervisor retries next tick.
func (co *Coordinator) relocate(fj *fleetJob, counter string) {
	rs := co.pickOwner(fj.key, nil)
	if rs == nil {
		co.orphan(fj)
		return
	}
	co.relocateTo(fj, rs, counter)
}

// relocateTo hands a job to a specific runner: resume there FIRST, then
// best-effort cancel the old copy. Resume-first means a lost cancel can
// only waste CPU (a zombie copy computing an answer nobody reads), never
// lose the job — the failure mode of cancel-first, where a cancel that
// lands but whose response is lost leaves the job dead with no successor.
// The best-effort cancel is also the cure for a false-positive death
// verdict: the not-actually-dead runner's copy must not keep computing,
// or the duplicated load worsens the starvation that caused the false
// positive.
func (co *Coordinator) relocateTo(fj *fleetJob, rs *runnerState, counter string) {
	co.mu.Lock()
	oldOwner := ownerKey(fj.runnerID, fj.runnerJob)
	oldRunnerJob := fj.runnerJob
	var oldClient *client.Client
	if old := co.runners[fj.runnerID]; old != nil {
		oldClient = old.c
	}
	req := fj.req
	var cp *client.Checkpoint
	if fj.checkpoint != nil {
		c := *fj.checkpoint
		cp = &c
	}
	co.mu.Unlock()

	var j client.Job
	err := co.postJSON(co.ctx, rs.c.BaseURL+"/fleet/resume",
		client.HandoffRequest{Request: req, Checkpoint: cp}, &j)
	if err != nil {
		co.logf("fleet: hand-off of %s to %s failed: %v", fj.id, rs.id, err)
		co.orphan(fj)
		return
	}
	co.mu.Lock()
	if oldClient != nil {
		co.goLocked(func(ctx context.Context) {
			ctx, cancel := context.WithTimeout(ctx, 10*co.cfg.HeartbeatEvery)
			defer cancel()
			oldClient.Cancel(ctx, oldRunnerJob)
		})
	}
	delete(co.byOwner, oldOwner)
	fj.runnerID = rs.id
	fj.runnerJob = j.ID
	fj.handoffs++
	fj.orphan = false
	fj.migrating = false
	co.byOwner[ownerKey(rs.id, j.ID)] = fj
	fj.last = rewriteJob(j, fj)
	if cp != nil {
		fj.last.CheckpointGeneration = cp.Generation
		fj.last.BestGates = cp.Gates
		fj.last.BestGarbage = cp.Garbage
	}
	co.mu.Unlock()
	co.reg.Counter(counter).Inc()
	gen := 0
	if cp != nil {
		gen = cp.Generation
	}
	co.logf("fleet: job %s relocated to %s (resume at generation %d)", fj.id, rs.id, gen)
}

func (co *Coordinator) orphan(fj *fleetJob) {
	co.mu.Lock()
	co.orphanLocked(fj)
	co.mu.Unlock()
}

func (co *Coordinator) orphanLocked(fj *fleetJob) {
	if !fj.orphan {
		fj.orphan = true
		fj.migrating = false
		co.reg.Counter("fleet.orphans").Inc()
	}
}

// placeOrphans retries jobs no runner could take — e.g. everything died
// and a fresh node has since registered — and jobs a runner forgot.
func (co *Coordinator) placeOrphans() {
	co.mu.Lock()
	var orphans []*fleetJob
	for _, fj := range co.jobs {
		if fj.orphan && !fj.terminal {
			fj.migrating = true
			orphans = append(orphans, fj)
		}
	}
	co.mu.Unlock()
	for _, fj := range orphans {
		co.relocate(fj, "fleet.handoffs")
	}
}

// stealWork moves one queued job per tick from the most backlogged runner
// to an idle one, via the same resume-first relocation the dead-runner
// path uses: the thief restarts it from the latest checkpoint (usually
// none for a queued job), so the result stays bit-identical per seed, and
// the victim's copy is then canceled.
func (co *Coordinator) stealWork() {
	co.mu.Lock()
	var thief, victim *runnerState
	for _, rs := range co.runners {
		if rs.dead {
			continue
		}
		h := rs.health
		if h.Queued == 0 && h.Running == 0 && thief == nil {
			thief = rs
		}
		if h.Queued > 0 && (victim == nil || h.Queued > victim.health.Queued) {
			victim = rs
		}
	}
	if thief == nil || victim == nil || thief == victim {
		co.mu.Unlock()
		return
	}
	var fj *fleetJob
	for _, cand := range co.order {
		if cand.runnerID == victim.id && !cand.terminal && !cand.orphan && !cand.migrating &&
			cand.last.Status == client.StatusQueued {
			fj = cand
			break
		}
	}
	if fj == nil {
		co.mu.Unlock()
		return
	}
	fj.migrating = true
	runnerJob := fj.runnerJob
	co.mu.Unlock()

	// Confirm it is still queued right before pulling it: a job that
	// started running is left alone (stealing it would discard search
	// progress for no queue-latency win).
	ctx, cancel := context.WithTimeout(co.ctx, 10*co.cfg.HeartbeatEvery)
	defer cancel()
	j, err := victim.c.Job(ctx, runnerJob)
	if err != nil || j.Status != client.StatusQueued {
		co.unmarkMigrating(fj)
		return
	}
	co.relocateTo(fj, thief, "fleet.steals")
}

func (co *Coordinator) unmarkMigrating(fj *fleetJob) {
	co.mu.Lock()
	fj.migrating = false
	co.mu.Unlock()
}

func (co *Coordinator) updateTopologyGaugesLocked() {
	total, healthy := 0, 0
	for _, rs := range co.runners {
		total++
		if !rs.dead {
			healthy++
		}
	}
	co.reg.Gauge("fleet.runners").Set(int64(total))
	co.reg.Gauge("fleet.runners_healthy").Set(int64(healthy))
}

func (co *Coordinator) updateJobGaugesLocked() {
	inflight := 0
	for _, fj := range co.jobs {
		if !fj.terminal {
			inflight++
		}
	}
	co.reg.Gauge("fleet.jobs_inflight").Set(int64(inflight))
}
