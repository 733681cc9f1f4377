package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/obs"
)

// fullAdder is a 3-input full adder as hex truth tables: sum (XOR3) and
// carry (MAJ3).
var fullAdder = client.Request{
	NumInputs:   3,
	TruthTables: []string{"96", "e8"},
	Generations: 1500,
	Seed:        7,
}

func newTestServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
		hs.Close()
	})
	return s, client.New(hs.URL)
}

func TestServerEndToEnd(t *testing.T) {
	cache := rcgp.NewMemoryCache(0)
	_, c := newTestServer(t, Config{Cache: cache, DefaultGenerations: 1000})
	ctx := context.Background()

	j, err := c.Submit(ctx, fullAdder)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.Status.Terminal() {
		t.Fatalf("submit state %+v", j)
	}
	done, err := c.Wait(ctx, j.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.StatusDone {
		t.Fatalf("job finished %q (%s)", done.Status, done.Error)
	}
	r := done.Result
	if r == nil || !r.Verified || r.FromCache {
		t.Fatalf("result %+v", r)
	}
	if r.Stats.Inputs != 3 || r.Stats.Outputs != 2 || r.Stats.Gates < 1 {
		t.Fatalf("stats %+v", r.Stats)
	}
	// The netlist on the wire is a real circuit: parse and check it
	// formally against the specification.
	circ, err := rcgp.ReadCircuit(strings.NewReader(r.Netlist))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := rcgp.FromTruthTablesHex(3, []string{"96", "e8"})
	if ok, err := d.Verify(circ); err != nil || !ok {
		t.Fatalf("served netlist not equivalent: %v %v", ok, err)
	}

	// Resubmission of the same function: answered from the cache, no
	// evolution spent.
	again, err := c.Submit(ctx, fullAdder)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Wait(ctx, again.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != client.StatusDone || warm.Result == nil {
		t.Fatalf("warm job %+v", warm)
	}
	if !warm.Result.FromCache || !warm.Result.Verified || warm.Result.Evaluations != 0 {
		t.Fatalf("warm result %+v", warm.Result)
	}

	// An NPN-equivalent variant (inputs permuted and negated) also hits.
	variant := fullAdder
	variant.TruthTables = []string{"69", "8e"} // full adder with input c complemented
	vj, err := c.Submit(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}
	vdone, err := c.Wait(ctx, vj.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if vdone.Status != client.StatusDone || !vdone.Result.FromCache || !vdone.Result.Verified {
		t.Fatalf("variant job %+v result %+v", vdone, vdone.Result)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Finished != 3 || h.Cache == nil || h.Cache.Hits < 2 {
		t.Fatalf("health %+v cache %+v", h, h.Cache)
	}

	names, err := c.Benchmarks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 || !sort.StringsAreSorted(names) {
		t.Fatalf("benchmarks %v", names)
	}
	if _, err := c.Job(ctx, "j999999"); err == nil {
		t.Fatal("unknown job served")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	bad := []client.Request{
		{}, // no source
		{Benchmark: "decoder_2_4", TruthTables: []string{"8"}, NumInputs: 2}, // two sources
		{Format: "verilog"},                         // no source text parses to nothing
		{Format: "nope", Source: "x"},               // unknown format
		{NumInputs: 2, TruthTables: []string{"zz"}}, // bad hex
		{Benchmark: "bogus"},                        // unknown benchmark
	}
	for i, req := range bad {
		if _, err := c.Submit(ctx, req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if got := s.Health().Queued; got != 0 {
		t.Fatalf("bad requests queued: %d", got)
	}
}

// POST /synthesize answers 400 to an unknown field (naming it), to an
// input count outside 0..20 and to λ outside 0..maxLambda, and queues
// nothing.
func TestServerRejectsBadBodies(t *testing.T) {
	s, c := newTestServer(t, Config{})
	for _, tc := range []struct{ body, want string }{
		{`{"benchmark":"ham3","script":"convert;buffer"}`, `unknown field "script"`},
		{`{"benchmark":"ham3","bogus_field":1}`, `unknown field "bogus_field"`},
		{`{"num_inputs":21,"truth_tables":["96"]}`, "out of range"},
		{`{"num_inputs":-1,"truth_tables":["96"]}`, "out of range"},
		{`{"benchmark":"ham3","lambda":1025}`, "lambda 1025"},
		{`{"benchmark":"ham3","lambda":-1}`, "lambda -1"},
	} {
		resp, err := http.Post(c.BaseURL+"/synthesize", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Errorf("%s: %v", tc.body, err)
			continue
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: %d %s, want 400 naming %q", tc.body, resp.StatusCode, msg, tc.want)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("bad bodies created jobs: %+v", jobs)
	}
}

func TestServerCancelRunning(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()

	long := fullAdder
	long.Generations = 50_000_000 // would run for minutes
	j, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	// "running" is reported before the pipeline reaches the search; cancel
	// only once the search has started, so a verified best-so-far circuit
	// exists.
	waitSearchStarted(t, s, j.ID)
	if err := c.Cancel(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	done, err := c.Wait(ctx, j.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.StatusCanceled {
		t.Fatalf("canceled job finished %q", done.Status)
	}
	// The wind-down still yields the verified best-so-far circuit.
	if done.Result == nil || !done.Result.Verified {
		t.Fatalf("canceled job result %+v", done.Result)
	}
}

func TestServerCancelQueued(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxConcurrent: 1})
	long := fullAdder
	long.Generations = 50_000_000
	running, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(fullAdder)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	got, err := s.Job(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != client.StatusCanceled {
		t.Fatalf("queued cancel -> %q", got.Status)
	}
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
}

func TestServerQueuePriorities(t *testing.T) {
	var q jobQueue
	mk := func(seq int64, prio int) *job {
		return &job{seq: seq, req: client.Request{Priority: prio}, heapIndex: -1}
	}
	q.push(mk(1, 0))
	q.push(mk(2, 5))
	q.push(mk(3, 5))
	q.push(mk(4, -1))
	wantSeq := []int64{2, 3, 1, 4} // priority desc, FIFO within a level
	for i, want := range wantSeq {
		if got := q.pop(); got.seq != want {
			t.Fatalf("pop %d: seq %d, want %d", i, got.seq, want)
		}
	}
}

func TestServerDrain(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()

	long := fullAdder
	long.Generations = 50_000_000
	j, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	waitSearchStarted(t, s, j.ID)

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	// Drained: no new admissions, the in-flight job wound down with its
	// best-so-far circuit, health reports draining.
	if _, err := c.Submit(ctx, fullAdder); err == nil {
		t.Fatal("submission accepted while draining")
	}
	done, err := c.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.StatusCanceled || done.Result == nil || !done.Result.Verified {
		t.Fatalf("drained job %+v result %+v", done, done.Result)
	}
	if h := s.Health(); h.Status != "draining" || h.Running != 0 {
		t.Fatalf("health after drain %+v", h)
	}
}

// The acceptance scenario: a server dies mid-search (here: drained, which
// like SIGKILL leaves the checkpoint file behind) and a new server over
// the same checkpoint directory resumes the job from its last snapshot.
func TestServerCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	cpdir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(cpdir, 0o755); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s1 := New(Config{CheckpointDir: cpdir, CheckpointEvery: 100, Registry: reg, Logf: t.Logf})
	long := fullAdder
	long.Generations = 50_000_000
	j, err := s1.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the search to pass at least one checkpoint.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := os.Stat(checkpointPath(cpdir, j.ID)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint file appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(checkpointPath(cpdir, j.ID)); err != nil {
		t.Fatalf("drain removed the in-flight checkpoint: %v", err)
	}

	// "Restart": a fresh server over the same directory re-queues the job.
	s2 := New(Config{CheckpointDir: cpdir, CheckpointEvery: 100, Registry: obs.NewRegistry(), Logf: t.Logf})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		s2.Close(ctx)
	}()
	rec, err := s2.Job(j.ID)
	if err != nil {
		t.Fatalf("job not recovered: %v", err)
	}
	if !rec.Resumed {
		t.Fatalf("recovered job not marked resumed: %+v", rec)
	}
	if rec.CheckpointGeneration < 100 || rec.BestGates < 1 {
		t.Fatalf("recovered progress lost: %+v", rec)
	}

	waitSearchStarted(t, s2, j.ID)
	if err := s2.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	final := pollTerminal(t, s2, j.ID)
	// Resume preserved the best-so-far: the wind-down circuit can be no
	// worse than the recovered checkpoint's fitness.
	if final.Result == nil || !final.Result.Verified {
		t.Fatalf("resumed job result %+v", final.Result)
	}
	if final.Result.Stats.Gates > rec.BestGates {
		t.Fatalf("best-so-far regressed across restart: %d > %d",
			final.Result.Stats.Gates, rec.BestGates)
	}
	// User cancellation is final: the checkpoint file is gone.
	if _, err := os.Stat(checkpointPath(cpdir, j.ID)); err == nil {
		t.Fatal("checkpoint survived a user cancel")
	}
}

func pollTerminal(t *testing.T, s *Server, id string) client.Job {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status.Terminal() {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitSearchStarted polls until the job's telemetry shows a flight sample,
// i.e. its CGP search has run its first sampling interval. A job reports
// "running" before the pipeline reaches the search, and one canceled that
// early has no best-so-far circuit to return.
func waitSearchStarted(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		j, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Telemetry != nil && j.Telemetry.FlightSamples >= 1 {
			return
		}
		if j.Status.Terminal() {
			t.Fatalf("job reached terminal %q before its search started", j.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job search never started (status %q)", j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
