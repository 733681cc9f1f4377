package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/serve"
)

// Fast cadences so death detection and hand-off land within test budgets.
const testHeartbeat = 50 * time.Millisecond

// testRunner is one in-process fleet node: its own cache, serve.Server,
// HTTP listener, and agent.
type testRunner struct {
	id    string
	cache *rcgp.Cache
	srv   *serve.Server
	hs    *httptest.Server
	agent *Runner
}

// kill tears the node down the unclean way: listener gone, heartbeats
// stopped, no drain hand-shake with the coordinator — the shape of a
// SIGKILL as the rest of the fleet observes it. The zombie search is then
// canceled locally only to stop it burning test CPU.
func (tr *testRunner) kill(t *testing.T) {
	t.Helper()
	tr.agent.Close()
	tr.hs.CloseClientConnections()
	tr.hs.Close()
	for _, j := range tr.srv.Jobs() {
		tr.srv.Cancel(j.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tr.srv.Close(ctx)
}

func (tr *testRunner) shutdown(t *testing.T) {
	t.Helper()
	tr.agent.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tr.srv.Close(ctx)
	tr.hs.Close()
}

// fleetHarness wires a coordinator and N runners in one process.
type fleetHarness struct {
	co      *Coordinator
	coReg   *obs.Registry
	hs      *httptest.Server
	c       *client.Client
	runners []*testRunner
}

func newFleet(t *testing.T, n int, scfg serve.Config) *fleetHarness {
	t.Helper()
	reg := obs.NewRegistry()
	// A generous miss budget: this test host has one CPU, so a running
	// search can starve the agent's heartbeat goroutine for hundreds of
	// milliseconds — long enough to fake a death at the production miss
	// count. 40×50ms tolerates the starvation while keeping genuine death
	// detection (the kill tests) within the test budget.
	co := NewCoordinator(CoordinatorConfig{
		HeartbeatEvery: testHeartbeat,
		HeartbeatMiss:  40,
		Registry:       reg,
		Logf:           t.Logf,
	})
	hs := httptest.NewServer(co.Handler())
	f := &fleetHarness{co: co, coReg: reg, hs: hs, c: client.New(hs.URL)}
	t.Cleanup(func() {
		for _, tr := range f.runners {
			if tr != nil {
				tr.shutdown(t)
			}
		}
		hs.Close()
		co.Close()
	})
	for i := 0; i < n; i++ {
		f.addRunner(t, scfg)
	}
	return f
}

func (f *fleetHarness) addRunner(t *testing.T, scfg serve.Config) *testRunner {
	t.Helper()
	tr := &testRunner{id: "r" + string(rune('1'+len(f.runners)))}
	tr.cache = rcgp.NewMemoryCache(0)
	tr.agent = NewRunner(RunnerConfig{
		ID:          tr.id,
		Coordinator: f.hs.URL,
		Cache:       tr.cache,
		Registry:    obs.NewRegistry(),
		Logf:        t.Logf,
	})
	cfg := scfg
	cfg.Cache = tr.cache
	cfg.Registry = obs.NewRegistry()
	cfg.OnCheckpoint = tr.agent.OnCheckpoint
	tr.srv = serve.New(cfg)
	tr.hs = httptest.NewServer(tr.srv.Handler())
	if err := tr.agent.Start(tr.srv, tr.hs.URL); err != nil {
		t.Fatal(err)
	}
	f.runners = append(f.runners, tr)
	return tr
}

// waitServe polls a local serve.Server until the job is terminal.
func waitServe(t *testing.T, srv *serve.Server, id string) client.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, err := srv.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status.Terminal() {
			return j
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return client.Job{}
}

// waitUntil polls cond until true or the deadline trips.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

var fullAdder = client.Request{
	NumInputs:   3,
	TruthTables: []string{"96", "e8"},
	Generations: 800,
	Seed:        3,
}

// The tentpole happy path: jobs shard deterministically, repeat
// submissions hit the shard's warm cache, and published results replicate
// to the sibling shard (where they are re-verified before adoption).
func TestFleetShardingAndReplication(t *testing.T) {
	f := newFleet(t, 2, serve.Config{DefaultGenerations: 800})
	ctx := context.Background()

	j, err := f.c.Submit(ctx, fullAdder)
	if err != nil {
		t.Fatal(err)
	}
	done, err := f.c.Wait(ctx, j.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.StatusDone || !done.Result.Verified || done.Result.FromCache {
		t.Fatalf("first run %+v", done)
	}

	// Same function again: the shard's cache answers without a search.
	j2, err := f.c.Submit(ctx, fullAdder)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := f.c.Wait(ctx, j2.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Status != client.StatusDone || !hit.Result.FromCache {
		t.Fatalf("resubmission was not a cache hit: %+v", hit)
	}
	if hit.Result.Netlist != done.Result.Netlist {
		t.Fatalf("cache served a different netlist")
	}

	// Replication: the runner that did NOT run the job must end up with the
	// entry too (via publish → coordinator fan-out → re-verified merge).
	waitUntil(t, 10*time.Second, "replication to the sibling shard", func() bool {
		var merges int64
		for _, tr := range f.runners {
			merges += tr.cache.Stats().Merges
		}
		return merges >= 1
	})

	// Topology surfaces: health and the runner table.
	h, err := f.c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Runners != 2 || h.RunnersHealthy != 2 {
		t.Fatalf("health %+v", h)
	}
	rs, err := f.c.Runners(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || !rs[0].Healthy || !rs[1].Healthy {
		t.Fatalf("runners %+v", rs)
	}
}

// The coordinator answers 400 to the bodies a runner refuses: its own
// decoder rejects an unknown field, shardKey an input count outside 0..20,
// and the runner's λ bound is passed through. No job is created anywhere.
func TestCoordinatorRejectsBadBodies(t *testing.T) {
	f := newFleet(t, 1, serve.Config{})
	for _, body := range []string{
		`{"benchmark":"ham3","script":"convert;buffer"}`,
		`{"num_inputs":21,"truth_tables":["96"]}`,
		`{"benchmark":"ham3","lambda":1025}`,
	} {
		resp, err := http.Post(f.hs.URL+"/synthesize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if jobs := f.co.Jobs(context.Background()); len(jobs) != 0 {
		t.Fatalf("coordinator lists jobs: %+v", jobs)
	}
	if jobs := f.runners[0].srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("runner queued jobs: %+v", jobs)
	}
}

// Identical functions must map to one shard; different functions spread.
func TestShardKeyStability(t *testing.T) {
	a := fullAdder
	b := fullAdder
	b.Seed = 99
	b.Generations = 123 // search options must not move the shard
	ka, err := shardKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := shardKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("same function sharded differently: %s vs %s", ka, kb)
	}
	c := client.Request{NumInputs: 3, TruthTables: []string{"1e"}}
	kc, err := shardKey(c)
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatalf("different functions share key %s", ka)
	}
}

// The acceptance drill: SIGKILL the runner mid-job; the coordinator must
// notice the silence, hand the last checkpoint to the surviving node, and
// the finished netlist must be bit-identical to an uninterrupted run.
func TestFleetKillRunnerMidJob(t *testing.T) {
	req := client.Request{
		NumInputs:   3,
		TruthTables: []string{"96", "e8"},
		Generations: 20000,
		Seed:        7,
		NoCache:     true, // force a real search on every leg
	}
	ctx := context.Background()

	// Reference: the same request, uninterrupted, on a standalone server.
	refSrv := serve.New(serve.Config{Registry: obs.NewRegistry()})
	defer func() {
		c, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		refSrv.Close(c)
	}()
	refJob, err := refSrv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ref := waitServe(t, refSrv, refJob.ID)
	if ref.Status != client.StatusDone || !ref.Result.Verified {
		t.Fatalf("reference run %+v", ref)
	}

	f := newFleet(t, 2, serve.Config{CheckpointEvery: 200})
	j, err := f.c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the owner only after a checkpoint reached the coordinator, so
	// the hand-off genuinely resumes mid-search.
	waitUntil(t, 20*time.Second, "a forwarded checkpoint", func() bool {
		jj, err := f.c.Job(ctx, j.ID)
		return err == nil && jj.CheckpointGeneration > 0 && jj.CheckpointGeneration < req.Generations
	})
	owner := -1
	for i, tr := range f.runners {
		for _, rj := range tr.srv.Jobs() {
			if rj.Status == client.StatusRunning || rj.Status == client.StatusQueued {
				owner = i
			}
			_ = rj
		}
	}
	if owner < 0 {
		t.Fatal("no runner owns the job")
	}
	f.runners[owner].kill(t)
	killed := f.runners[owner]
	f.runners[owner] = f.runners[len(f.runners)-1]
	f.runners = f.runners[:len(f.runners)-1]
	_ = killed

	done, err := f.c.Wait(ctx, j.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.StatusDone || !done.Result.Verified {
		t.Fatalf("relocated job %+v (error %q)", done, done.Error)
	}
	if !done.Resumed {
		t.Fatalf("relocated job not marked resumed: %+v", done)
	}
	if got := f.coReg.Counter("fleet.handoffs").Load(); got < 1 {
		t.Fatalf("handoffs counter %d", got)
	}
	if got := f.coReg.Counter("fleet.runner_deaths").Load(); got != 1 {
		t.Fatalf("runner_deaths counter %d", got)
	}

	// Bit-identical per seed, hand-off invisible in the result.
	if done.Result.Netlist != ref.Result.Netlist {
		t.Errorf("relocated netlist differs from the uninterrupted run:\n%s\nvs\n%s",
			done.Result.Netlist, ref.Result.Netlist)
	}
	if done.Result.Stats != ref.Result.Stats {
		t.Errorf("stats %+v != %+v", done.Result.Stats, ref.Result.Stats)
	}
	if done.Result.Generations != ref.Result.Generations {
		t.Errorf("generations %d != %d", done.Result.Generations, ref.Result.Generations)
	}
	// Counter continuity: one hand-off = one extra parent re-evaluation.
	if got, want := done.Result.Evaluations, ref.Result.Evaluations+1; got != want {
		t.Errorf("evaluations %d, want uninterrupted %d + 1 parent re-eval",
			got, ref.Result.Evaluations)
	}

	// Health reflects the death.
	h, err := f.c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Runners != 2 || h.RunnersHealthy != 1 {
		t.Fatalf("post-kill health %+v", h)
	}
}

// An idle runner must pull queued work off a loaded sibling, and the
// stolen job's result must still be the deterministic per-seed answer.
func TestFleetWorkStealing(t *testing.T) {
	base := client.Request{
		NumInputs:   3,
		TruthTables: []string{"96", "e8"},
		// Long enough that the first job is still running after a couple of
		// heartbeat rounds — the window the steal machinery needs.
		Generations: 120000,
		NoCache:     true, // identical functions must not collapse into a hit
	}
	ctx := context.Background()

	// Reference for the job that will be stolen.
	stolen := base
	stolen.Seed = 21
	refSrv := serve.New(serve.Config{Registry: obs.NewRegistry()})
	defer func() {
		c, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		refSrv.Close(c)
	}()
	refJob, err := refSrv.Submit(stolen)
	if err != nil {
		t.Fatal(err)
	}
	ref := waitServe(t, refSrv, refJob.ID)

	// MaxConcurrent 1: two same-shard jobs pile onto one runner, so the
	// second queues while the other runner idles — the steal setup.
	f := newFleet(t, 2, serve.Config{MaxConcurrent: 1})
	first := base
	first.Seed = 20
	j1, err := f.c.Submit(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := f.c.Submit(ctx, stolen)
	if err != nil {
		t.Fatal(err)
	}

	d1, err := f.c.Wait(ctx, j1.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := f.c.Wait(ctx, j2.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Status != client.StatusDone || d2.Status != client.StatusDone {
		t.Fatalf("jobs finished %s / %s", d1.Status, d2.Status)
	}
	if got := f.coReg.Counter("fleet.steals").Load(); got < 1 {
		t.Fatalf("steals counter %d — the idle runner never pulled work", got)
	}
	if d2.Result.Netlist != ref.Result.Netlist {
		t.Errorf("stolen job's netlist differs from the uninterrupted reference")
	}
}

// The coordinator's progress stream must follow the job and renumber
// sample seqs into one monotonic fleet-side cursor, closing with the
// fleet job's terminal status.
func TestFleetProgressStream(t *testing.T) {
	req := client.Request{
		NumInputs:   3,
		TruthTables: []string{"96", "e8"},
		Generations: 4000,
		Seed:        5,
		NoCache:     true,
		FlightEvery: 100,
	}
	f := newFleet(t, 2, serve.Config{})
	ctx := context.Background()
	j, err := f.c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(f.hs.URL + "/jobs/" + j.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress status %d", resp.StatusCode)
	}
	var (
		lastSeq int64
		samples int
		end     *progressEnd
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line progressLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if line.Status != "" {
			end = &progressEnd{Status: line.Status, Seq: line.FlightSample.Seq}
			break
		}
		if line.FlightSample.Seq != lastSeq+1 {
			t.Fatalf("seq %d after %d — not a continuous cursor", line.FlightSample.Seq, lastSeq)
		}
		lastSeq = line.FlightSample.Seq
		samples++
	}
	if end == nil {
		t.Fatalf("stream ended without a status line (err %v)", sc.Err())
	}
	if end.Status != client.StatusDone {
		t.Fatalf("stream closed with status %s", end.Status)
	}
	if samples == 0 {
		t.Fatal("stream delivered no samples")
	}
	if end.Seq != lastSeq {
		t.Fatalf("closing seq %d, delivered through %d", end.Seq, lastSeq)
	}
}

// A canceled fleet job must cancel wherever it runs.
func TestFleetCancel(t *testing.T) {
	req := client.Request{
		NumInputs:   3,
		TruthTables: []string{"96", "e8"},
		Generations: 2000000, // far beyond the test budget: must be canceled
		Seed:        9,
		NoCache:     true,
	}
	f := newFleet(t, 1, serve.Config{})
	ctx := context.Background()
	j, err := f.c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "the job to start", func() bool {
		jj, err := f.c.Job(ctx, j.ID)
		return err == nil && jj.Status == client.StatusRunning
	})
	if err := f.c.Cancel(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	done, err := f.c.Wait(ctx, j.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.StatusCanceled {
		t.Fatalf("status %s after cancel", done.Status)
	}
}
