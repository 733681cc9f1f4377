// Package client is the Go client for the rcgp-serve synthesis service:
// the wire types of the HTTP/JSON API plus a small typed client that
// submits jobs, polls them to completion, and reads server health. The
// server side (internal/serve) imports this package, so the structs here
// are the single source of truth for the protocol.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Request describes one synthesis job. Exactly one specification source
// must be set: Benchmark, Format+Source, or NumInputs+TruthTables.
type Request struct {
	// Benchmark names one of the built-in paper benchmarks.
	Benchmark string `json:"benchmark,omitempty"`
	// Format + Source carry an inline design: "verilog", "blif", "aiger",
	// "pla", or "real".
	Format string `json:"format,omitempty"`
	Source string `json:"source,omitempty"`
	// NumInputs + TruthTables specify the function directly, one
	// hexadecimal table per output (MSB nibble first).
	NumInputs   int      `json:"num_inputs,omitempty"`
	TruthTables []string `json:"truth_tables,omitempty"`

	// Search options; zero values take the server defaults.
	Generations  int     `json:"generations,omitempty"`
	Lambda       int     `json:"lambda,omitempty"`
	MutationRate float64 `json:"mutation_rate,omitempty"`
	Seed         int64   `json:"seed,omitempty"`

	// Priority orders the queue: higher runs first, ties FIFO.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the job's wall-clock run time; expiry returns the
	// best circuit found so far.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache skips the result cache for this job (both lookup and store).
	NoCache bool `json:"no_cache,omitempty"`
	// NoTemplates skips the template-rewrite pass for this job (no library
	// matching, no learning).
	NoTemplates bool `json:"no_templates,omitempty"`
	// FlightEvery overrides the server's flight-recorder cadence for this
	// job (generations between samples); 0 takes the server default, a
	// negative value disables recording.
	FlightEvery int `json:"flight_every,omitempty"`
	// Trace enables per-job execution-trace capture: the server keeps a
	// bounded JSONL trace of the run (pipeline spans, generation
	// checkpoints, SAT verdicts) and serves it on GET /jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Stats are the paper's RQFP cost metrics.
type Stats struct {
	Inputs  int `json:"inputs"`
	Outputs int `json:"outputs"`
	Gates   int `json:"gates"`
	Buffers int `json:"buffers"`
	JJs     int `json:"jjs"`
	Depth   int `json:"depth"`
	Garbage int `json:"garbage"`
}

// Result is a finished job's circuit and provenance.
type Result struct {
	// Netlist is the circuit in the textual RQFP format.
	Netlist string `json:"netlist"`
	Stats   Stats  `json:"stats"`
	// Generations/Evaluations report the evolutionary effort spent (zero
	// for cache hits).
	Generations int   `json:"generations"`
	Evaluations int64 `json:"evaluations"`
	RuntimeMS   int64 `json:"runtime_ms"`
	// FromCache marks results served from the NPN-class result cache;
	// CacheKey is the class signature.
	FromCache bool   `json:"from_cache"`
	CacheKey  string `json:"cache_key,omitempty"`
	// Verified reports the final formal equivalence check against the
	// submitted specification.
	Verified bool `json:"verified"`
	// StopReason records why the search stopped ("generations",
	// "deadline", "canceled", or "cache").
	StopReason string `json:"stop_reason,omitempty"`
}

// FlightSample is one point of a job's search trajectory, streamed live on
// GET /jobs/{id}/progress (NDJSON, one sample per line) and retained on the
// job. The fields mirror rcgp.FlightSample; Seq is the server-assigned
// 1-based sample index used as the stream resume cursor (?after=N).
type FlightSample struct {
	Seq              int64   `json:"seq,omitempty"`
	Gen              int     `json:"gen"`
	Evaluations      int64   `json:"evals"`
	Gates            int     `json:"gates"`
	Garbage          int     `json:"garbage"`
	Buffers          int     `json:"buffers"`
	Depth            int     `json:"depth"`
	JJs              int     `json:"jjs"`
	FullEvals        int64   `json:"full_evals"`
	IncrementalEvals int64   `json:"incremental_evals"`
	DedupSkips       int64   `json:"dedup_skips"`
	Improvements     int64   `json:"improvements"`
	ElapsedMS        int64   `json:"elapsed_ms"`
	EvalsPerSec      float64 `json:"evals_per_sec"`
}

// HistogramSummary is the wire form of one duration histogram: counts plus
// bucket-estimated quantiles, all in nanoseconds.
type HistogramSummary struct {
	Count  int64 `json:"count"`
	SumNS  int64 `json:"sum_ns"`
	MeanNS int64 `json:"mean_ns"`
	MinNS  int64 `json:"min_ns"`
	MaxNS  int64 `json:"max_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
}

// JobStage is one entry of a job's pipeline stage-time breakdown.
type JobStage struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"dur_ns"`
	Skipped    string `json:"skipped,omitempty"`
}

// JobTelemetry is the per-job observability view on GET /jobs/{id}: the
// job's own counters, gauges, and histogram summaries (double-written by
// the synthesis pipeline into a job-private registry, so they cover this
// job only — GET /metrics aggregates across all jobs), plus the stage-time
// breakdown once the job finished.
type JobTelemetry struct {
	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
	Stages     []JobStage                  `json:"stages,omitempty"`
	// FlightSamples counts the trajectory samples recorded so far (the
	// retained window is streamed by /jobs/{id}/progress).
	FlightSamples int64 `json:"flight_samples,omitempty"`
	// Template is the identity-template rewrite report (nil when the pass
	// did not run — no library configured, or the request opted out).
	Template *TemplateReport `json:"template,omitempty"`
}

// TemplateReport summarizes the job's identity-template rewrite pass.
type TemplateReport struct {
	Rounds     int   `json:"rounds"`
	Windows    int   `json:"windows"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Rewrites   int   `json:"rewrites"`
	GatesSaved int   `json:"gates_saved"`
	Learned    int   `json:"learned"`
}

// Job is the server's view of one synthesis job.
type Job struct {
	ID          string     `json:"id"`
	Status      Status     `json:"status"`
	Priority    int        `json:"priority"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Resumed marks jobs recovered from a checkpoint after a restart.
	Resumed bool `json:"resumed,omitempty"`
	// Best-so-far progress from the latest checkpoint of a running job.
	CheckpointGeneration int `json:"checkpoint_generation,omitempty"`
	BestGates            int `json:"best_gates,omitempty"`
	BestGarbage          int `json:"best_garbage,omitempty"`
	// Result is present once Status is "done" (and for canceled jobs that
	// produced a best-so-far circuit before cancellation).
	Result *Result `json:"result,omitempty"`
	// Telemetry is the job's own observability view: counters, gauges, and
	// histogram summaries from the job-private metric registry, live while
	// the job runs and frozen when it finishes.
	Telemetry *JobTelemetry `json:"telemetry,omitempty"`
}

// CacheStats mirrors the server cache counters.
type CacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Stores       int64 `json:"stores"`
	BadEntries   int64 `json:"bad_entries"`
	MemEntries   int   `json:"mem_entries"`
	DiskEntries  int   `json:"disk_entries"`
	DiskPromotes int64 `json:"disk_promotes"`
	// Replication counters (fleet runners): remote entries adopted,
	// skipped as already present, and refused by re-verification.
	Merges       int64 `json:"merges,omitempty"`
	MergeSkips   int64 `json:"merge_skips,omitempty"`
	MergeRejects int64 `json:"merge_rejects,omitempty"`
}

// TemplateStats mirrors the server template-library counters.
type TemplateStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Learned int64 `json:"learned"`
	Rejects int64 `json:"rejects"`
	// Replication counters (fleet runners): remote templates adopted,
	// skipped as not improving, and refused by re-verification.
	Merges       int64 `json:"merges,omitempty"`
	MergeSkips   int64 `json:"merge_skips,omitempty"`
	MergeRejects int64 `json:"merge_rejects,omitempty"`
}

// Health is the GET /healthz payload. Finished counts every job that
// reached a terminal status, including finished jobs the server no longer
// remembers.
type Health struct {
	// Status is "ok" while accepting jobs, "draining" during shutdown.
	Status    string         `json:"status"`
	Queued    int            `json:"queued"`
	Running   int            `json:"running"`
	Finished  int            `json:"finished"`
	Cache     *CacheStats    `json:"cache,omitempty"`
	Templates *TemplateStats `json:"templates,omitempty"`
	// Build identity of the serving binary, from runtime/debug build info:
	// module version, VCS revision (12-hex prefix, "+dirty" when the tree
	// was modified), and the Go toolchain that built it.
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// Fleet topology summary, present when the responder is a coordinator:
	// registered runner count and how many are currently healthy.
	Runners        int `json:"runners,omitempty"`
	RunnersHealthy int `json:"runners_healthy,omitempty"`
}

// APIError is a non-2xx response decoded from the server.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's backpressure hint, parsed from the
	// Retry-After header of a 429 (queue full) response; zero when the
	// server sent none.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rcgp-serve: %d: %s", e.StatusCode, e.Message)
}

// Client talks to one rcgp-serve instance (or a fleet coordinator — the
// two speak the same API, so a client pointed at a coordinator works
// unchanged).
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds how many times an idempotent request (GET, DELETE)
	// is retried after a connection failure or 5xx response, with
	// exponential backoff and jitter between attempts — enough for Wait and
	// Watch to ride out a server or coordinator restart. 0 means the
	// default (4); negative disables retries. Non-idempotent requests
	// (POST) are never retried.
	MaxRetries int
	// RetryBase is the first backoff delay (default 100ms); each further
	// attempt doubles it, capped at 2s, with ±50% jitter.
	RetryBase time.Duration
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// Submit enqueues a synthesis job and returns its initial state.
func (c *Client) Submit(ctx context.Context, req Request) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodPost, "/synthesize", req, &j)
	return j, err
}

// Job fetches one job by ID.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &j)
	return j, err
}

// Jobs lists the jobs the server remembers, newest first: every queued
// and running job and the most recently finished ones.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var js []Job
	err := c.do(ctx, http.MethodGet, "/jobs", nil, &js)
	return js, err
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, nil)
}

// Wait polls the job every poll interval (default 100ms) until it reaches
// a terminal status or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return j, err
		}
		if j.Status.Terminal() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-t.C:
		}
	}
}

// Health fetches the server health summary.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Benchmarks lists the server's built-in benchmark circuits.
func (c *Client) Benchmarks(ctx context.Context) ([]string, error) {
	var names []string
	err := c.do(ctx, http.MethodGet, "/benchmarks", nil, &names)
	return names, err
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		payload = b
	}
	// Only idempotent methods retry: a resubmitted POST could enqueue the
	// same search twice. GET and DELETE (cancel) are safe to repeat.
	retries := 0
	if method == http.MethodGet || method == http.MethodDelete {
		retries = c.maxRetries()
	}
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, payload, in != nil, out)
		if err == nil || attempt >= retries || !retryable(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(retryDelay(attempt, c.retryBase())):
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, hasBody bool, out any) error {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return apiError(resp, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError builds the typed error for a non-2xx response, carrying the
// Retry-After backpressure hint when the server set one.
func apiError(resp *http.Response, msg string) *APIError {
	e := &APIError{StatusCode: resp.StatusCode, Message: msg}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// retryable reports whether an error is worth repeating an idempotent
// request for: transport failures (connection refused mid-restart, reset
// connections) and 5xx responses. 4xx responses are the caller's problem.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 500
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return 4
	default:
		return c.MaxRetries
	}
}

func (c *Client) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return 100 * time.Millisecond
}

// retryDelay is the backoff before retry attempt+1: base·2^attempt capped
// at 2s, jittered to 50–150% so a fleet of clients hammered by the same
// outage doesn't reconnect in lockstep.
func retryDelay(attempt int, base time.Duration) time.Duration {
	d := base << uint(attempt)
	if max := 2 * time.Second; d > max || d <= 0 {
		d = 2 * time.Second
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(d)+1))
}
