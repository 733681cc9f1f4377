package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/obs"
)

// job is the server-side state of one synthesis job. All fields are
// guarded by the server mutex except req/design/resume, which are written
// once before the job is published (design is released under the mutex
// once the job is terminal).
type job struct {
	id     string
	seq    int64
	req    client.Request
	design *rcgp.Design

	status    client.Status
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string

	// resume carries the recovered checkpoint for jobs re-queued after a
	// restart; resumed marks them in the API.
	resume  *rcgp.Checkpoint
	resumed bool

	// cancel aborts the running search; canceled distinguishes a user
	// cancellation from a drain wind-down (whose checkpoint must survive
	// for the next process to resume).
	cancel   context.CancelFunc
	canceled bool

	// Best-so-far progress from the latest checkpoint.
	cpGen       int
	bestGates   int
	bestGarbage int

	// Per-job observability: reg receives this job's private copy of every
	// metric the search double-writes (the scope fans out to reg and the
	// server registry), flight feeds the progress stream, trace captures
	// the execution-trace event stream when the request asked for it, and
	// stages is the pipeline wall-clock breakdown once the job finishes.
	// reg, flight, and trace are written once before the job is published;
	// stages is guarded by the server mutex. A terminal job's telemetry is
	// frozen into tel and reg is released.
	reg      *obs.Registry
	flight   *flightLog
	trace    *traceBuf
	stages   []client.JobStage
	template *client.TemplateReport
	tel      *client.JobTelemetry

	result    *client.Result
	heapIndex int // -1 when not queued
}

func (j *job) wire() client.Job {
	w := client.Job{
		ID:          j.id,
		Status:      j.status,
		Priority:    j.req.Priority,
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
		Resumed:     j.resumed,

		CheckpointGeneration: j.cpGen,
		BestGates:            j.bestGates,
		BestGarbage:          j.bestGarbage,
		Result:               j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		w.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		w.FinishedAt = &t
	}
	switch {
	case j.tel != nil:
		w.Telemetry = j.tel
	case !j.started.IsZero():
		w.Telemetry = j.telemetry()
	}
	return w
}

// telemetry renders the job-private registry (plus stage times and the
// flight-sample count) for the API. Safe while the job is running: the
// registry snapshot is internally synchronized, so GET /jobs/{id} shows
// live counters mid-search.
func (j *job) telemetry() *client.JobTelemetry {
	snap := j.reg.Snapshot()
	tel := &client.JobTelemetry{
		Counters:      snap.Counters,
		Gauges:        snap.Gauges,
		Stages:        j.stages,
		FlightSamples: j.flight.count(),
		Template:      j.template,
	}
	if len(snap.Histograms) > 0 {
		tel.Histograms = make(map[string]client.HistogramSummary, len(snap.Histograms))
		for name, h := range snap.Histograms {
			tel.Histograms[name] = client.HistogramSummary{
				Count:  h.Count,
				SumNS:  int64(h.Sum),
				MeanNS: int64(h.Mean),
				MinNS:  int64(h.Min),
				MaxNS:  int64(h.Max),
				P50NS:  int64(h.P50),
				P90NS:  int64(h.P90),
				P99NS:  int64(h.P99),
			}
		}
	}
	return tel
}

// wireStages flattens the library telemetry's stage breakdown (run and
// skipped passes) into the wire form.
func wireStages(t rcgp.Telemetry) []client.JobStage {
	out := make([]client.JobStage, 0, len(t.Stages)+len(t.Skipped))
	for _, st := range t.Stages {
		out = append(out, client.JobStage{Name: st.Name, DurationNS: int64(st.Duration)})
	}
	for _, sk := range t.Skipped {
		out = append(out, client.JobStage{Name: sk.Name, Skipped: sk.Reason})
	}
	return out
}

// wireFlight converts a library flight sample to the wire form (the Seq is
// stamped by the flightLog on append).
func wireFlight(s rcgp.FlightSample) client.FlightSample {
	return client.FlightSample{
		Gen:              s.Gen,
		Evaluations:      s.Evaluations,
		Gates:            s.Gates,
		Garbage:          s.Garbage,
		Buffers:          s.Buffers,
		Depth:            s.Depth,
		JJs:              s.JJs,
		FullEvals:        s.FullEvals,
		IncrementalEvals: s.IncrementalEvals,
		DedupSkips:       s.DedupSkips,
		Improvements:     s.Improvements,
		ElapsedMS:        s.ElapsedMS,
		EvalsPerSec:      s.EvalsPerSec,
	}
}

// BuildDesign constructs the specification from a request. Exactly one of
// the three specification sources must be present.
func BuildDesign(req client.Request) (*rcgp.Design, error) {
	sources := 0
	if req.Benchmark != "" {
		sources++
	}
	if req.Format != "" || req.Source != "" {
		sources++
	}
	if len(req.TruthTables) > 0 {
		sources++
	}
	if sources != 1 {
		return nil, errors.New("exactly one of benchmark, format+source, or truth_tables must be set")
	}
	switch {
	case req.Benchmark != "":
		return rcgp.Benchmark(req.Benchmark)
	case len(req.TruthTables) > 0:
		return rcgp.FromTruthTablesHex(req.NumInputs, req.TruthTables)
	}
	r := strings.NewReader(req.Source)
	switch req.Format {
	case "verilog":
		return rcgp.FromVerilog(r)
	case "blif":
		return rcgp.FromBLIF(r)
	case "aiger":
		return rcgp.FromAIGER(r)
	case "pla":
		return rcgp.FromPLA(r)
	case "real":
		return rcgp.FromREAL(r)
	case "":
		return nil, errors.New("format required with an inline source")
	default:
		return nil, fmt.Errorf("unknown format %q (want verilog, blif, aiger, pla, or real)", req.Format)
	}
}

// jobQueue is a priority queue: higher Priority first, FIFO within a
// priority level (by submission sequence).
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, k int) bool {
	if q[i].req.Priority != q[k].req.Priority {
		return q[i].req.Priority > q[k].req.Priority
	}
	return q[i].seq < q[k].seq
}
func (q jobQueue) Swap(i, k int) {
	q[i], q[k] = q[k], q[i]
	q[i].heapIndex = i
	q[k].heapIndex = k
}
func (q *jobQueue) Push(x any) {
	j := x.(*job)
	j.heapIndex = len(*q)
	*q = append(*q, j)
}
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIndex = -1
	*q = old[:n-1]
	return j
}

func (q *jobQueue) push(j *job) { heap.Push(q, j) }
func (q *jobQueue) pop() *job   { return heap.Pop(q).(*job) }
func (q *jobQueue) remove(j *job) {
	if j.heapIndex >= 0 {
		heap.Remove(q, j.heapIndex)
	}
}
