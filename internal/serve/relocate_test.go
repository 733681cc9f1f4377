package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/obs"
)

// A job relocated between server instances must be invisible in the
// result: capture a checkpoint on one Server (fresh process state), resume
// it on a second one, and require the final netlist and the search-effort
// telemetry to match an uninterrupted run of the same request.
func TestJobRelocationBitIdentical(t *testing.T) {
	req := client.Request{
		NumInputs:   3,
		TruthTables: []string{"96", "e8"},
		Generations: 1200,
		Seed:        11,
	}
	ctx := context.Background()

	// Reference: the uninterrupted run. No cache anywhere in this test —
	// every run must actually search.
	_, ref := newTestServer(t, Config{DefaultGenerations: 1200})
	refJob, err := ref.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	refDone, err := ref.Wait(ctx, refJob.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if refDone.Status != client.StatusDone || !refDone.Result.Verified {
		t.Fatalf("reference run %+v", refDone)
	}

	// First leg: run the same request on an instance that hands us every
	// checkpoint, and cancel it once a mid-run snapshot exists. The first
	// checkpoint holds the job until the test has cancelled it, so the
	// short search cannot finish first. Holding cannot deadlock: the server
	// calls OnCheckpoint without its lock, and Cancel only flags the job
	// and calls its cancel func.
	var mu sync.Mutex
	var lastCP *client.Checkpoint
	cpTaken := make(chan struct{})
	canceled := make(chan struct{})
	release := sync.OnceFunc(func() { close(canceled) })
	defer release()
	first := New(Config{
		DefaultGenerations: 1200,
		CheckpointEvery:    200,
		Registry:           obs.NewRegistry(),
		OnCheckpoint: func(id string, r client.Request, cp client.Checkpoint) {
			mu.Lock()
			c := cp
			isFirst := lastCP == nil
			lastCP = &c
			mu.Unlock()
			if isFirst {
				close(cpTaken)
				<-canceled
			}
		},
	})
	hs := httptest.NewServer(first.Handler())
	defer hs.Close()
	fc := client.New(hs.URL)
	firstJob, err := fc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-cpTaken:
	case <-time.After(30 * time.Second):
		t.Fatal("no checkpoint within 30s")
	}
	// Simulate the node dying mid-job: tear the instance down without
	// letting the job finish cleanly.
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := first.Cancel(firstJob.ID); err != nil {
		t.Fatalf("cancel the first leg: %v", err)
	}
	release()
	first.Close(cctx)
	cancel()
	mu.Lock()
	cp := lastCP
	mu.Unlock()
	if cp == nil || cp.Generation <= 0 || cp.Generation >= 1200 {
		t.Fatalf("checkpoint %+v is not a mid-run snapshot", cp)
	}

	// Second leg: a fresh instance (fresh process state) resumes from the
	// published checkpoint via the hand-off endpoint.
	_, sc := newTestServer(t, Config{DefaultGenerations: 1200})
	handedOff, err := submitHandoffHTTP(t, sc, client.HandoffRequest{Request: req, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if !handedOff.Resumed {
		t.Fatalf("handed-off job not marked resumed: %+v", handedOff)
	}
	resumed, err := sc.Wait(ctx, handedOff.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Status != client.StatusDone || !resumed.Result.Verified {
		t.Fatalf("resumed run %+v", resumed)
	}

	// The relocated run must equal the uninterrupted one bit for bit.
	if resumed.Result.Netlist != refDone.Result.Netlist {
		t.Errorf("relocated netlist differs from the uninterrupted run:\n%s\nvs\n%s",
			resumed.Result.Netlist, refDone.Result.Netlist)
	}
	if resumed.Result.Stats != refDone.Result.Stats {
		t.Errorf("stats %+v != %+v", resumed.Result.Stats, refDone.Result.Stats)
	}
	if resumed.Result.Generations != refDone.Result.Generations {
		t.Errorf("generations %d != %d", resumed.Result.Generations, refDone.Result.Generations)
	}
	// Evaluation-count telemetry: counter continuity across the hand-off.
	// The resumed run keeps counting on top of the snapshot, plus exactly
	// one re-evaluation of the restored parent (core.restore's contract).
	if got, want := resumed.Result.Evaluations, refDone.Result.Evaluations+1; got != want {
		t.Errorf("evaluations %d, want uninterrupted %d + 1 parent re-eval",
			got, refDone.Result.Evaluations)
	}
}

// submitHandoffHTTP drives POST /fleet/resume the way a coordinator does.
func submitHandoffHTTP(t *testing.T, c *client.Client, h client.HandoffRequest) (client.Job, error) {
	t.Helper()
	var j client.Job
	b, err := json.Marshal(h)
	if err != nil {
		return j, err
	}
	resp, err := http.Post(c.BaseURL+"/fleet/resume", "application/json", bytes.NewReader(b))
	if err != nil {
		return j, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("handoff status %d", resp.StatusCode)
	}
	return j, json.NewDecoder(resp.Body).Decode(&j)
}

// A full queue is backpressure, not an opaque failure: the 429 must carry
// Retry-After and surface client-side as a typed APIError.
func TestQueueFullRetryAfter(t *testing.T) {
	// MaxConcurrent 1 + QueueLimit 1: the second queued job overflows.
	_, c := newTestServer(t, Config{
		MaxConcurrent:      1,
		QueueLimit:         1,
		DefaultGenerations: 40000,
		RetryAfter:         5 * time.Second,
	})
	ctx := context.Background()
	long := client.Request{NumInputs: 3, TruthTables: []string{"96", "e8"}, Generations: 40000, Seed: 1}
	if _, err := c.Submit(ctx, long); err != nil {
		t.Fatal(err)
	}
	// One slot runs, one queues; keep submitting until the queue rejects
	// (admission may race the scheduler draining the first submit).
	var apiErr *client.APIError
	for i := 0; i < 4; i++ {
		v := long
		v.Seed = int64(i + 2)
		_, err := c.Submit(ctx, v)
		if err == nil {
			continue
		}
		var ok bool
		if apiErr, ok = err.(*client.APIError); !ok {
			t.Fatalf("error %T %v is not an APIError", err, err)
		}
		break
	}
	if apiErr == nil {
		t.Fatal("queue never filled")
	}
	if apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", apiErr.StatusCode)
	}
	if apiErr.RetryAfter != 5*time.Second {
		t.Fatalf("Retry-After %v, want 5s", apiErr.RetryAfter)
	}
	if !strings.Contains(apiErr.Message, "queue") {
		t.Fatalf("message %q", apiErr.Message)
	}
}
