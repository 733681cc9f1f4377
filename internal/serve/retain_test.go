package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
)

// getBody fetches a URL and returns the status code and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// waitStatus polls until the job reports the wanted status.
func waitStatus(t *testing.T, s *Server, id string, want client.Status) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		j, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, j.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Settling a terminal job (freezing its telemetry, releasing its design
// and registry) must not change what GET /jobs/{id} returns. The job
// here has every telemetry part: counters, gauges, histograms, stages, a
// template report and flight samples.
func TestSettledJobBodyUnchanged(t *testing.T) {
	lib, err := rcgp.StarterTemplates()
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, Config{MaxConcurrent: 1, Templates: lib, FlightEvery: 100})
	ctx := context.Background()

	// Hold the only slot so the job under test is still queued, with its
	// live registry attached, when the test takes hold of it.
	long := fullAdder
	long.Generations = 50_000_000
	blocker, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, blocker.ID, client.StatusRunning)
	j, err := c.Submit(ctx, fullAdder)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	live := s.jobs[j.ID]
	reg := live.reg
	s.mu.Unlock()
	if err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	done := pollTerminal(t, s, j.ID)
	if done.Status != client.StatusDone {
		t.Fatalf("job finished %q (%s)", done.Status, done.Error)
	}
	tel := done.Telemetry
	if tel == nil || len(tel.Counters) == 0 || len(tel.Histograms) == 0 || len(tel.Stages) == 0 ||
		tel.Template == nil || tel.FlightSamples == 0 {
		t.Fatalf("job telemetry is missing parts: %+v", tel)
	}

	s.mu.Lock()
	if live.reg != nil || live.design != nil || live.tel == nil {
		s.mu.Unlock()
		t.Fatal("terminal job was not settled")
	}
	// The unsettled job: the same state with the live registry back in
	// place of the frozen telemetry.
	unsettled := *live
	unsettled.reg, unsettled.tel = reg, nil
	before := httptest.NewRecorder()
	writeJSON(before, http.StatusOK, unsettled.wire())
	s.mu.Unlock()

	code, after := getBody(t, c.BaseURL+"/jobs/"+j.ID)
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", j.ID, code)
	}
	if got, want := string(after), before.Body.String(); got != want {
		t.Fatalf("settled body differs:\n%s\nunsettled:\n%s", got, want)
	}
}

// The server remembers the newest retainedJobs terminal jobs: after
// retainedJobs+k of them the k oldest answer 404, while queued and
// running jobs are never forgotten, /healthz still counts every finished
// job, and GET /jobs stays newest-first and bounded.
func TestServerForgetsOldestTerminalJobs(t *testing.T) {
	s, c := newTestServer(t, Config{MaxConcurrent: 1})
	ctx := context.Background()

	first, err := s.Submit(fullAdder)
	if err != nil {
		t.Fatal(err)
	}
	if done := pollTerminal(t, s, first.ID); done.Status != client.StatusDone {
		t.Fatalf("first job finished %q", done.Status)
	}
	long := fullAdder
	long.Generations = 50_000_000
	running, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, running.ID, client.StatusRunning)
	queued, err := s.Submit(fullAdder)
	if err != nil {
		t.Fatal(err)
	}

	// Tiny terminal jobs: submitted behind the busy slot, canceled while
	// queued.
	const k = 5
	terminal := []string{first.ID}
	for len(terminal) < retainedJobs+k {
		j, err := s.Submit(fullAdder)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
		terminal = append(terminal, j.ID)
	}

	for i, id := range terminal {
		_, err := s.Job(id)
		if i < k && !errors.Is(err, ErrNotFound) {
			t.Fatalf("terminal job %d of %d (%s) still remembered (err %v)", i, len(terminal), id, err)
		}
		if i >= k && err != nil {
			t.Fatalf("terminal job %d of %d (%s) forgotten: %v", i, len(terminal), id, err)
		}
	}
	if code, _ := getBody(t, c.BaseURL+"/jobs/"+first.ID); code != http.StatusNotFound {
		t.Fatalf("GET forgotten job: %d, want 404", code)
	}
	for id, want := range map[string]client.Status{running.ID: client.StatusRunning, queued.ID: client.StatusQueued} {
		j, err := s.Job(id)
		if err != nil || j.Status != want {
			t.Fatalf("job %s: %+v, %v; want %q", id, j.Status, err, want)
		}
	}
	if h := s.Health(); h.Finished != retainedJobs+k || h.Running != 1 || h.Queued != 1 {
		t.Fatalf("health finished=%d running=%d queued=%d, want %d/1/1", h.Finished, h.Running, h.Queued, retainedJobs+k)
	}

	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != retainedJobs+2 {
		t.Fatalf("GET /jobs lists %d jobs, want %d", len(list), retainedJobs+2)
	}
	if list[0].ID != terminal[len(terminal)-1] {
		t.Fatalf("GET /jobs starts with %s, want the newest %s", list[0].ID, terminal[len(terminal)-1])
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].SubmittedAt.Before(list[i].SubmittedAt) || list[i-1].ID <= list[i].ID {
			t.Fatalf("GET /jobs not newest-first at %d: %s then %s", i, list[i-1].ID, list[i].ID)
		}
	}

	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
}
