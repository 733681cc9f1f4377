package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/obs"
)

func TestFlightLogCursorAndEviction(t *testing.T) {
	l := newFlightLog(4)
	for i := 1; i <= 10; i++ {
		l.append(client.FlightSample{Gen: i * 100})
	}
	if l.count() != 10 {
		t.Fatalf("count %d, want 10", l.count())
	}
	// Only the last 4 samples are retained; a cursor from before the
	// window resumes at the oldest retained sample.
	got, _, done := l.since(0)
	if done {
		t.Fatal("log done before close")
	}
	if len(got) != 4 || got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("since(0) = %+v", got)
	}
	if got[0].Gen != 700 {
		t.Fatalf("oldest retained gen %d, want 700", got[0].Gen)
	}
	// A cursor inside the window resumes exactly after it.
	got, _, _ = l.since(8)
	if len(got) != 2 || got[0].Seq != 9 {
		t.Fatalf("since(8) = %+v", got)
	}
	// A caught-up cursor blocks until the next append wakes it.
	got, notify, _ := l.since(10)
	if len(got) != 0 {
		t.Fatalf("since(10) = %+v", got)
	}
	select {
	case <-notify:
		t.Fatal("notify fired with no new sample")
	default:
	}
	l.append(client.FlightSample{Gen: 1100})
	select {
	case <-notify:
	case <-time.After(time.Second):
		t.Fatal("append did not wake the waiter")
	}
	// close wakes waiters and is sticky; appends after close are dropped.
	_, notify, _ = l.since(11)
	l.close()
	select {
	case <-notify:
	case <-time.After(time.Second):
		t.Fatal("close did not wake the waiter")
	}
	l.append(client.FlightSample{Gen: 9999})
	got, _, done = l.since(11)
	if !done || len(got) != 0 {
		t.Fatalf("after close: done=%v extra=%+v", done, got)
	}
}

func TestTraceBufTruncatesWholeWrites(t *testing.T) {
	b := newTraceBuf(10)
	if n, err := b.Write([]byte("12345678")); n != 8 || err != nil {
		t.Fatalf("write: %d %v", n, err)
	}
	// Doesn't fit: dropped whole, reported as written, never an error —
	// a truncated trace must not fail the run it observes.
	if n, err := b.Write([]byte("abcdef")); n != 6 || err != nil {
		t.Fatalf("overflow write: %d %v", n, err)
	}
	data, truncated := b.bytes()
	if string(data) != "12345678" || !truncated {
		t.Fatalf("bytes = %q truncated=%v", data, truncated)
	}
}

// drainProgress reads one whole progress stream (non-blocking once the job
// is terminal) and returns the samples and the closing status line.
func drainProgress(t *testing.T, base, id string, after int64) ([]client.FlightSample, progressEnd) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/progress?after=%d", base, id, after))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("progress content-type %q", ct)
	}
	var samples []client.FlightSample
	var end progressEnd
	sawEnd := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sawEnd {
			t.Fatalf("line after status line: %s", sc.Text())
		}
		var probe struct {
			Status client.Status `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad progress line %q: %v", sc.Text(), err)
		}
		if probe.Status != "" {
			if err := json.Unmarshal(sc.Bytes(), &end); err != nil {
				t.Fatal(err)
			}
			sawEnd = true
			continue
		}
		var s client.FlightSample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEnd {
		t.Fatal("stream ended without a status line")
	}
	return samples, end
}

func TestProgressStreamTelemetryAndTrace(t *testing.T) {
	reg := obs.NewRegistry()
	cache := rcgp.NewMemoryCache(0)
	_, c := newTestServer(t, Config{Cache: cache, Registry: reg, FlightEvery: 100})
	ctx := context.Background()

	req := fullAdder
	req.FlightEvery = 50
	req.Trace = true
	j, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Follow the live stream with the client's Watch; it returns the final
	// job state once the server sends the terminal status line.
	var watched []client.FlightSample
	done, err := c.Watch(ctx, j.ID, func(s client.FlightSample) { watched = append(watched, s) })
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.StatusDone {
		t.Fatalf("job finished %q (%s)", done.Status, done.Error)
	}
	if len(watched) == 0 {
		t.Fatal("watch saw no flight samples")
	}
	for i := 1; i < len(watched); i++ {
		if watched[i].Seq <= watched[i-1].Seq || watched[i].Gen < watched[i-1].Gen {
			t.Fatalf("samples out of order: %+v then %+v", watched[i-1], watched[i])
		}
	}
	last := watched[len(watched)-1]
	if last.Gen != done.Result.Generations || last.Evaluations != done.Result.Evaluations {
		t.Fatalf("closing sample (gen=%d evals=%d) disagrees with result (gen=%d evals=%d)",
			last.Gen, last.Evaluations, done.Result.Generations, done.Result.Evaluations)
	}

	// Re-reading the whole stream after completion replays the samples and
	// closes with the status line; a caught-up cursor gets the line only.
	samples, end := drainProgress(t, c.BaseURL, j.ID, 0)
	if len(samples) != len(watched) {
		t.Fatalf("replay has %d samples, watch saw %d", len(samples), len(watched))
	}
	if end.Status != client.StatusDone || end.Seq != last.Seq {
		t.Fatalf("stream end %+v, want done at seq %d", end, last.Seq)
	}
	if tail, end2 := drainProgress(t, c.BaseURL, j.ID, last.Seq); len(tail) != 0 || end2.Seq != last.Seq {
		t.Fatalf("caught-up stream: %d extra samples, end %+v", len(tail), end2)
	}

	// GET /jobs/{id} carries the job's own telemetry: search counters,
	// pipeline histograms and stage times, and the flight-sample count.
	got, err := c.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	tel := got.Telemetry
	if tel == nil {
		t.Fatal("finished job has no telemetry")
	}
	if tel.Counters["cgp.evaluations"] == 0 || tel.Counters["cec.checks"] == 0 {
		t.Fatalf("job counters %+v", tel.Counters)
	}
	if tel.Counters["cgp.evaluations"] != done.Result.Evaluations {
		t.Fatalf("job counter cgp.evaluations = %d, result says %d",
			tel.Counters["cgp.evaluations"], done.Result.Evaluations)
	}
	if h, ok := tel.Histograms["flow.synth"]; !ok || h.Count == 0 || h.SumNS <= 0 {
		t.Fatalf("job histograms %+v", tel.Histograms)
	}
	if len(tel.Stages) == 0 {
		t.Fatal("no stage breakdown")
	}
	if tel.FlightSamples != last.Seq {
		t.Fatalf("flight sample count %d, want %d", tel.FlightSamples, last.Seq)
	}
	// Double-write: the same search counters also landed in the server
	// registry (the cross-job aggregate).
	if v := reg.Counter("cgp.evaluations").Load(); v != done.Result.Evaluations {
		t.Fatalf("server registry cgp.evaluations = %d, want %d", v, done.Result.Evaluations)
	}

	// The captured execution trace is valid NDJSON with balanced spans.
	resp, err := http.Get(c.BaseURL + "/jobs/" + j.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var events []map[string]any
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var ev map[string]any
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("bad trace event: %v", err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("trace captured no events")
	}
	if err := obs.ValidateSpanNesting(events); err != nil {
		t.Fatal(err)
	}

	// A cache-served resubmission records no search, but its progress
	// stream still terminates with the status line, and flight sampling
	// can be disabled per request.
	warmReq := fullAdder
	warmReq.FlightEvery = -1
	warm, err := c.Submit(ctx, warmReq)
	if err != nil {
		t.Fatal(err)
	}
	wdone, err := c.Watch(ctx, warm.ID, func(s client.FlightSample) {
		t.Errorf("unexpected flight sample on cache-served job: %+v", s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if wdone.Status != client.StatusDone || !wdone.Result.FromCache {
		t.Fatalf("warm job %+v", wdone)
	}
	if wdone.Telemetry == nil || wdone.Telemetry.FlightSamples != 0 {
		t.Fatalf("warm telemetry %+v", wdone.Telemetry)
	}

	// A job submitted without trace capture 404s on /trace.
	if resp, err := http.Get(c.BaseURL + "/jobs/" + warm.ID + "/trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("traceless job trace status %d", resp.StatusCode)
		}
	}

	// GET /metrics: valid Prometheus text covering the server registry
	// (search + serve metrics), Go runtime gauges, build info, and the
	// cache counters.
	mresp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := readAll(t, mresp)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	if err := obs.LintPrometheusText(strings.NewReader(mbody)); err != nil {
		t.Fatalf("/metrics lint: %v\n%s", err, mbody)
	}
	for _, want := range []string{
		"rcgp_cgp_evaluations_total",
		"rcgp_serve_jobs_done_total",
		"rcgp_serve_http_request_bucket{",
		"go_goroutines",
		"rcgp_build_info{",
		"rcgp_cache_hits_total",
		"rcgp_cache_merges_total",
	} {
		if !strings.Contains(mbody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
