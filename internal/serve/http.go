package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/buildinfo"
	"github.com/reversible-eda/rcgp/internal/obs"
)

// Handler returns the HTTP/JSON API:
//
//	POST   /synthesize          submit a job (202 + job state)
//	GET    /jobs                list remembered jobs, newest first
//	GET    /jobs/{id}           one job's state: per-job telemetry while it
//	                            runs, result once done; 404 once the job is
//	                            among the finished jobs the server forgot
//	GET    /jobs/{id}/progress  live flight-recorder stream (NDJSON
//	                            long-poll; ?after=seq resumes a dropped
//	                            stream; ends with a {"status":...} line)
//	GET    /jobs/{id}/trace     execution-trace event stream, for jobs
//	                            submitted with "trace": true
//	DELETE /jobs/{id}           cancel a queued or running job
//	GET    /healthz             liveness + build identity + queue/cache summary
//	GET    /metrics             the metrics registry (counters, gauges,
//	                            latency histograms) in Prometheus text
//	                            exposition format 0.0.4, plus Go runtime,
//	                            build-info, cache and template metrics
//	GET    /benchmarks          built-in benchmark names, sorted
//
// Every request's latency is observed into the "serve.http_request"
// histogram of the server's registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /synthesize", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /benchmarks", s.handleBenchmarks)
	mux.HandleFunc("POST /fleet/resume", s.handleResume)
	mux.HandleFunc("POST /fleet/cache", s.handleCacheMerge)
	mux.HandleFunc("POST /fleet/template", s.handleTemplateMerge)
	return s.observe(mux)
}

func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		s.reg.Histogram("serve.http_request").Observe(time.Since(start))
		s.reg.Counter("serve.http_requests").Inc()
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req client.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		s.submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

// submitError maps a Submit/SubmitHandoff failure onto the wire: a full
// queue is backpressure (429 + Retry-After so well-behaved clients pace
// themselves), draining is 503, anything else is the caller's request.
func (s *Server) submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
		httpError(w, http.StatusTooManyRequests, err.Error())
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

// handleResume is POST /fleet/resume: accept a job relocated from another
// fleet node, resuming from the checkpoint in the body (if any). The resumed
// search is bit-identical per seed to the uninterrupted one.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	var req client.HandoffRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, err := s.SubmitHandoff(req.Request, req.Checkpoint)
	if err != nil {
		s.submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

// handleCacheMerge is POST /fleet/cache: adopt a canonical-result entry
// replicated from another fleet node. The entry is re-verified locally
// before it is stored, so a bad payload costs CPU, never correctness. 404
// when the server runs without a cache.
func (s *Server) handleCacheMerge(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cache == nil {
		httpError(w, http.StatusNotFound, "server has no result cache")
		return
	}
	var e client.CacheEntry
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&e); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := s.cfg.Cache.Merge(rcgp.CacheEntry{Key: e.Key, NumPI: e.NumPI, NumPO: e.NumPO, Netlist: e.Netlist}); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.reg.Counter("serve.cache_merges").Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleTemplateMerge is POST /fleet/template: adopt an identity template
// replicated from another fleet node. The netlist is re-simulated and
// re-canonicalized locally before it is stored; non-improving entries are
// skipped silently (204 either way — replication is idempotent). 404 when
// the server runs without a template library.
func (s *Server) handleTemplateMerge(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Templates == nil {
		httpError(w, http.StatusNotFound, "server has no template library")
		return
	}
	var e client.TemplateEntry
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&e); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := s.cfg.Templates.Merge(rcgp.TemplateEntry{
		Key: e.Key, NumPI: e.NumPI, NumPO: e.NumPO, Gates: e.Gates, Netlist: e.Netlist,
	}); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.reg.Counter("serve.template_merges").Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handlePrometheus is GET /metrics: the server registry in Prometheus text
// exposition format 0.0.4, followed by Go runtime gauges, the build-info
// metric, and (when a cache is attached) the cache counters. Rendered into
// a buffer first so a slow scraper never holds the registry lock.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.reg.WritePrometheus(&buf)
	obs.WriteGoMetrics(&buf)
	obs.WriteInfoMetric(&buf, "rcgp_build_info", "Build identity of the serving binary.", map[string]string{
		"version":  buildinfo.Version(),
		"revision": buildinfo.Revision(),
		"go":       buildinfo.GoVersion(),
	})
	if s.cfg.Cache != nil {
		writeCacheMetrics(&buf, s.cfg.Cache.Stats())
	}
	if s.cfg.Templates != nil {
		writeTemplateMetrics(&buf, s.cfg.Templates.Stats())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// writeCacheMetrics renders the result-cache statistics as Prometheus
// counters and gauges.
func writeCacheMetrics(w *bytes.Buffer, cs rcgp.CacheStats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("rcgp_cache_hits_total", "Result-cache lookups answered without a search.", cs.Hits)
	counter("rcgp_cache_misses_total", "Result-cache lookups that fell through to a search.", cs.Misses)
	counter("rcgp_cache_stores_total", "Results stored into the cache.", cs.Stores)
	counter("rcgp_cache_bad_entries_total", "Cache entries rejected by re-verification.", cs.BadEntries)
	counter("rcgp_cache_disk_promotes_total", "Disk-tier entries promoted into memory.", cs.DiskPromotes)
	counter("rcgp_cache_merges_total", "Replicated entries adopted from the fleet.", cs.Merges)
	counter("rcgp_cache_merge_skips_total", "Replicated entries skipped as already present.", cs.MergeSkips)
	counter("rcgp_cache_merge_rejects_total", "Replicated entries refused by re-verification.", cs.MergeRejects)
	gauge("rcgp_cache_mem_entries", "Entries resident in the in-memory cache tier.", int64(cs.MemEntries))
	gauge("rcgp_cache_disk_entries", "Entries resident in the on-disk cache tier.", int64(cs.DiskEntries))
}

// writeTemplateMetrics renders the template-library statistics as
// Prometheus counters and gauges.
func writeTemplateMetrics(w *bytes.Buffer, ts rcgp.TemplateStats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	// The family is rcgp_template_library_*: the store-side view of the
	// shared library. The per-sweep pass counters (template.hits etc.) are
	// exported by the registry as rcgp_template_*_total and must not be
	// shadowed here.
	counter("rcgp_template_library_hits_total", "Window lookups answered by the template library.", ts.Hits)
	counter("rcgp_template_library_misses_total", "Window lookups with no stored template.", ts.Misses)
	counter("rcgp_template_library_learned_total", "Templates learned from scanned windows.", ts.Learned)
	counter("rcgp_template_library_rejects_total", "Template entries rejected by re-verification.", ts.Rejects)
	counter("rcgp_template_library_merges_total", "Replicated templates adopted from the fleet.", ts.Merges)
	counter("rcgp_template_library_merge_skips_total", "Replicated templates skipped as not improving.", ts.MergeSkips)
	counter("rcgp_template_library_merge_rejects_total", "Replicated templates refused by re-verification.", ts.MergeRejects)
	fmt.Fprintf(w, "# HELP rcgp_template_library_entries Template classes resident in the library.\n# TYPE rcgp_template_library_entries gauge\nrcgp_template_library_entries %d\n", ts.Entries)
}

// progressEnd is the closing line of a /jobs/{id}/progress stream: the
// job's terminal status and the last sequence number the stream delivered.
type progressEnd struct {
	Status client.Status `json:"status"`
	Seq    int64         `json:"seq"`
}

// handleProgress is GET /jobs/{id}/progress: an NDJSON long-poll that
// streams the job's flight-recorder samples as the search takes them. Each
// sample carries a seq number; ?after=N resumes past samples the client
// already saw. When the job reaches a terminal status and the stream has
// caught up, one {"status":...} line is written and the stream ends. For a
// job that records no samples (cache hit, sampling disabled, early
// failure) the stream is just that status line.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
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
	enc := json.NewEncoder(w)
	for {
		samples, notify, done := j.flight.since(after)
		for _, smp := range samples {
			if err := enc.Encode(smp); err != nil {
				return // client went away
			}
			after = smp.Seq
		}
		if done {
			s.mu.Lock()
			st := j.status
			s.mu.Unlock()
			enc.Encode(progressEnd{Status: st, Seq: after})
			if fl != nil {
				fl.Flush()
			}
			return
		}
		if fl != nil {
			fl.Flush() // deliver samples (or just headers) before blocking
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace is GET /jobs/{id}/trace: the captured execution-trace event
// stream of a job submitted with "trace": true. 404 for jobs that did not
// opt in. Readable while the job is still running; an oversized trace is
// truncated at a whole-event boundary and flagged via the
// X-Rcgp-Trace-Truncated header.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, ErrNotFound.Error())
		return
	}
	if j.trace == nil {
		httpError(w, http.StatusNotFound, "job was not submitted with trace capture")
		return
	}
	data, truncated := j.trace.bytes()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if truncated {
		w.Header().Set("X-Rcgp-Trace-Truncated", "true")
	}
	w.Write(data)
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Benchmarks())
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
