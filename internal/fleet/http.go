package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/buildinfo"
	"github.com/reversible-eda/rcgp/internal/obs"
)

// Handler returns the coordinator's HTTP API. The job-facing routes are
// the same ones rcgp-serve exposes — POST /synthesize, GET /jobs,
// GET /jobs/{id} (+ /progress, /trace), DELETE /jobs/{id}, GET /healthz,
// /metrics, /benchmarks — so the client package and every
// existing tool work unchanged against a fleet. The /fleet/* routes are
// the control plane:
//
//	POST /fleet/register    runner joins (response seeds its cache)
//	POST /fleet/heartbeat   runner liveness + load
//	POST /fleet/checkpoint  runner forwards a job snapshot
//	POST /fleet/publish     runner publishes a canonical result
//	POST /fleet/publish-template  runner publishes a learned template
//	GET  /fleet/runners     topology view
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /synthesize", co.handleSubmit)
	mux.HandleFunc("GET /jobs", co.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", co.handleJob)
	mux.HandleFunc("GET /jobs/{id}/progress", co.handleProgress)
	mux.HandleFunc("GET /jobs/{id}/trace", co.handleTrace)
	mux.HandleFunc("DELETE /jobs/{id}", co.handleCancel)
	mux.HandleFunc("GET /healthz", co.handleHealth)
	mux.HandleFunc("GET /metrics", co.handlePrometheus)
	mux.HandleFunc("GET /benchmarks", co.handleBenchmarks)
	mux.HandleFunc("POST /fleet/register", co.handleRegister)
	mux.HandleFunc("POST /fleet/heartbeat", co.handleHeartbeat)
	mux.HandleFunc("POST /fleet/checkpoint", co.handleCheckpoint)
	mux.HandleFunc("POST /fleet/publish", co.handlePublish)
	mux.HandleFunc("POST /fleet/publish-template", co.handlePublishTemplate)
	mux.HandleFunc("GET /fleet/runners", co.handleRunners)
	return co.observe(mux)
}

func (co *Coordinator) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		co.reg.Histogram("fleet.http_request").Observe(time.Since(start))
		co.reg.Counter("fleet.http_requests").Inc()
	})
}

func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req client.Request
	// Unknown fields are refused, as on a runner's own POST /synthesize.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, err := co.Submit(r.Context(), req)
	switch {
	case errors.Is(err, ErrNoRunners):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			// Pass a runner's verdict (bad request, backpressure) through.
			if apiErr.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(int(apiErr.RetryAfter/time.Second)))
			}
			httpError(w, apiErr.StatusCode, apiErr.Message)
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusAccepted, j)
	}
}

func (co *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, co.Jobs(r.Context()))
}

func (co *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	j, err := co.Job(r.Context(), r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (co *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := co.Cancel(r.Context(), r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, err.Error())
	case err != nil:
		httpError(w, http.StatusBadGateway, err.Error())
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (co *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := co.Health()
	h.Version = buildinfo.Version()
	h.Revision = buildinfo.Revision()
	h.GoVersion = buildinfo.GoVersion()
	writeJSON(w, http.StatusOK, h)
}

// handlePrometheus is GET /metrics: the coordinator registry plus the
// per-runner series — liveness, queue depth, in-flight fleet jobs, and
// each shard's cache hit/miss counters, so per-shard hit rates are one
// PromQL ratio away.
func (co *Coordinator) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	co.reg.WritePrometheus(&buf)
	obs.WriteGoMetrics(&buf)
	obs.WriteInfoMetric(&buf, "rcgp_build_info", "Build identity of the serving binary.", map[string]string{
		"version":  buildinfo.Version(),
		"revision": buildinfo.Revision(),
		"go":       buildinfo.GoVersion(),
	})
	writeRunnerMetrics(&buf, co.Runners())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// writeRunnerMetrics renders the per-runner series. Each metric name is
// emitted once with HELP/TYPE and one sample per runner, labeled by
// runner ID.
func writeRunnerMetrics(w *bytes.Buffer, runners []client.RunnerInfo) {
	if len(runners) == 0 {
		return
	}
	series := func(name, typ, help string, value func(client.RunnerInfo) (int64, bool)) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, ri := range runners {
			v, ok := value(ri)
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%s{runner=%q} %d\n", name, promLabel(ri.ID), v)
		}
	}
	series("rcgp_fleet_runner_up", "gauge", "Whether the runner is heartbeating (1) or presumed dead (0).",
		func(ri client.RunnerInfo) (int64, bool) {
			if ri.Healthy {
				return 1, true
			}
			return 0, true
		})
	series("rcgp_fleet_runner_jobs", "gauge", "In-flight fleet jobs assigned to the runner.",
		func(ri client.RunnerInfo) (int64, bool) { return int64(ri.Jobs), true })
	series("rcgp_fleet_runner_queued", "gauge", "Jobs queued on the runner, from its last heartbeat.",
		func(ri client.RunnerInfo) (int64, bool) { return int64(ri.Queued), true })
	series("rcgp_fleet_runner_running", "gauge", "Jobs running on the runner, from its last heartbeat.",
		func(ri client.RunnerInfo) (int64, bool) { return int64(ri.Running), true })
	series("rcgp_fleet_runner_cache_hits_total", "counter", "Shard result-cache hits, from the runner's last heartbeat.",
		func(ri client.RunnerInfo) (int64, bool) {
			if ri.Cache == nil {
				return 0, false
			}
			return ri.Cache.Hits, true
		})
	series("rcgp_fleet_runner_cache_misses_total", "counter", "Shard result-cache misses, from the runner's last heartbeat.",
		func(ri client.RunnerInfo) (int64, bool) {
			if ri.Cache == nil {
				return 0, false
			}
			return ri.Cache.Misses, true
		})
	series("rcgp_fleet_runner_cache_merges_total", "counter", "Replicated entries the shard adopted, from the runner's last heartbeat.",
		func(ri client.RunnerInfo) (int64, bool) {
			if ri.Cache == nil {
				return 0, false
			}
			return ri.Cache.Merges, true
		})
	series("rcgp_fleet_runner_template_hits_total", "counter", "Template-library hits on the runner, from its last heartbeat.",
		func(ri client.RunnerInfo) (int64, bool) {
			if ri.Templates == nil {
				return 0, false
			}
			return ri.Templates.Hits, true
		})
	series("rcgp_fleet_runner_template_learned_total", "counter", "Templates the runner learned locally, from its last heartbeat.",
		func(ri client.RunnerInfo) (int64, bool) {
			if ri.Templates == nil {
				return 0, false
			}
			return ri.Templates.Learned, true
		})
}

// promLabel sanitizes a runner ID for use as a label value.
func promLabel(v string) string {
	return strings.NewReplacer("\\", `\\`, "\"", `\"`, "\n", `\n`).Replace(v)
}

func (co *Coordinator) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	names := rcgp.BenchmarkNames()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, names)
}

func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var rr registerRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&rr); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	resp, err := co.Register(rr)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb heartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&hb); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := co.Heartbeat(hb); err != nil {
		// 404 tells the runner to re-register (coordinator restarted).
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (co *Coordinator) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	var cr checkpointRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&cr); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	co.PublishCheckpoint(cr)
	w.WriteHeader(http.StatusNoContent)
}

func (co *Coordinator) handlePublish(w http.ResponseWriter, r *http.Request) {
	var pr publishRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&pr); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	co.PublishEntry(pr)
	w.WriteHeader(http.StatusNoContent)
}

func (co *Coordinator) handlePublishTemplate(w http.ResponseWriter, r *http.Request) {
	var tr templatePublishRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&tr); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	co.PublishTemplate(tr)
	w.WriteHeader(http.StatusNoContent)
}

func (co *Coordinator) handleRunners(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, co.Runners())
}

// handleTrace proxies GET /jobs/{id}/trace from the job's current owner.
func (co *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	co.mu.Lock()
	fj, ok := co.jobs[r.PathValue("id")]
	var base, runnerJob string
	if ok {
		if rs := co.runners[fj.runnerID]; rs != nil && !rs.dead {
			base, runnerJob = rs.c.BaseURL, fj.runnerJob
		}
	}
	co.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, ErrNotFound.Error())
		return
	}
	if base == "" {
		httpError(w, http.StatusServiceUnavailable, "fleet: the job's runner is unreachable")
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, base+"/jobs/"+runnerJob+"/trace", nil)
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	resp, err := co.hc.Do(req)
	if err != nil {
		co.reg.Counter("fleet.proxy_errors").Inc()
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "X-Rcgp-Trace-Truncated"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// progressEnd is the closing line of a progress stream: the fleet job's
// terminal status and the last sequence number delivered.
type progressEnd struct {
	Status client.Status `json:"status"`
	Seq    int64         `json:"seq"`
}

// progressLine is one NDJSON line from a runner's progress stream: either
// a flight sample or the runner-side end-of-stream status marker.
type progressLine struct {
	client.FlightSample
	Status client.Status `json:"status"`
}

// handleProgress streams a fleet job's flight samples by following the
// job across runners: it proxies the current owner's progress stream and
// renumbers sample sequence numbers into one continuous fleet-side
// cursor. On a hand-off the stream reconnects to the new owner — samples
// the origin buffered but never delivered before dying are lost (the
// checkpointed search state is not; the live stream is a best-effort
// view). A runner-side terminal marker only ends the fleet stream once
// the fleet job itself is terminal; a "canceled" from a stolen copy's
// victim is invisible here.
func (co *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	co.mu.Lock()
	fj, ok := co.jobs[r.PathValue("id")]
	co.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, ErrNotFound.Error())
		return
	}
	after, err := strconv.ParseInt(r.URL.Query().Get("after"), 10, 64)
	if err != nil && r.URL.Query().Get("after") != "" {
		httpError(w, http.StatusBadRequest, "bad after cursor: "+err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	enc := json.NewEncoder(w)
	delivered := after
	for {
		co.mu.Lock()
		terminal := fj.terminal
		status := fj.last.Status
		handoffs := fj.handoffs
		runnerJob := fj.runnerJob
		var c *client.Client
		if rs := co.runners[fj.runnerID]; rs != nil && !rs.dead && !fj.orphan && !fj.migrating {
			c = rs.c
		}
		co.mu.Unlock()
		if terminal {
			enc.Encode(progressEnd{Status: status, Seq: delivered})
			if fl != nil {
				fl.Flush()
			}
			return
		}
		if c == nil {
			// Owner dead or the job is mid-relocation: wait it out.
			select {
			case <-r.Context().Done():
				return
			case <-time.After(co.cfg.HeartbeatEvery):
			}
			continue
		}
		// A never-relocated job resumes the runner stream at the client's
		// cursor; after a hand-off the new owner's stream starts over (its
		// samples are all post-checkpoint, hence new to this client).
		ownerAfter := int64(0)
		if handoffs == 0 {
			ownerAfter = delivered
		}
		done, ok := co.pumpProgress(r, enc, fl, fj, c, runnerJob, ownerAfter, &delivered)
		if done {
			return
		}
		if !ok {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(co.cfg.HeartbeatEvery):
			}
		}
	}
}

// pumpProgress relays one owner's progress stream, renumbering sample
// seqs into the fleet cursor. Returns done=true when the fleet stream was
// closed (terminal status delivered or the client went away) and ok=false
// when the relay should back off before reconnecting.
func (co *Coordinator) pumpProgress(r *http.Request, enc *json.Encoder, fl http.Flusher,
	fj *fleetJob, c *client.Client, runnerJob string, ownerAfter int64, delivered *int64) (done, ok bool) {
	url := fmt.Sprintf("%s/jobs/%s/progress?after=%d", c.BaseURL, runnerJob, ownerAfter)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		return false, false
	}
	resp, err := co.hc.Do(req)
	if err != nil {
		co.reg.Counter("fleet.proxy_errors").Inc()
		return r.Context().Err() != nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The runner forgot the job: a poll sends it down the lost-job path.
		co.Job(r.Context(), fj.id)
	}
	if resp.StatusCode != http.StatusOK {
		return false, false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var pl progressLine
		if err := json.Unmarshal(line, &pl); err != nil {
			continue
		}
		if pl.Status != "" {
			// Runner-side end of stream. Refresh the fleet job: if it is
			// terminal, close out; otherwise a relocation is in flight and
			// the outer loop reconnects to the new owner.
			if _, err := co.Job(r.Context(), fj.id); err != nil {
				return true, true
			}
			co.mu.Lock()
			terminal := fj.terminal
			status := fj.last.Status
			co.mu.Unlock()
			if terminal {
				enc.Encode(progressEnd{Status: status, Seq: *delivered})
				if fl != nil {
					fl.Flush()
				}
				return true, true
			}
			return false, true
		}
		*delivered++
		pl.FlightSample.Seq = *delivered
		if err := enc.Encode(pl.FlightSample); err != nil {
			return true, true // client went away
		}
		if fl != nil {
			fl.Flush()
		}
	}
	// Stream broke mid-flight (owner died): reconnect via the outer loop.
	return r.Context().Err() != nil, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	http.Error(w, msg, status)
}
