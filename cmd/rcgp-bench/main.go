// Command rcgp-bench is the repository's benchmark. It runs four
// closed-loop workloads through the calls the system's users make
// (rcgp.Design.Synthesize, and the client package against an in-process
// rcgp-serve), checks every returned circuit against a reference of its
// own, and prints end-to-end metrics (untraced) or per-layer metrics (a
// traced run) by name and unit. Each run has its own process, so heap and
// RSS are per workload.
//
//	rcgp-bench -workload cgp-hwb8 -seed 1 -seconds 25 -trace 0
//	rcgp-bench -seed 1 -runs 10 -o set.json     # every workload, seeds 1..10
//	rcgp-bench -seed 1 -trace spans.jsonl -o traced.json
//	rcgp-bench compare old.json new.json
//
// A single run prints its metrics, then its record, and as the last line
// {"correct", "attempted", "failed", "metrics"}. The exit status is 1 when
// any job failed or disagreed with the reference. See README.md for the
// workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/reversible-eda/rcgp/internal/buildinfo"
)

// recordPrefix marks the line of a run's output that carries its record.
const recordPrefix = "rcgp-bench-run "

// defaultSpans is where "-trace 1" writes spans, relative to the working
// directory (the repository root when run through run.sh).
const defaultSpans = ".bench_build/spans.jsonl"

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout))
	}
	os.Exit(benchMain(args, os.Stdout))
}

// recordSet is the file -o writes and compare reads.
type recordSet struct {
	Schema string       `json:"schema"`
	Runs   []*runRecord `json:"runs"`
}

const schema = "rcgp-bench/1"

// hostInfo is the host block of every record.
type hostInfo struct {
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Oversubscribed bool   `json:"oversubscribed"`
	GoVersion      string `json:"go_version"`
	Revision       string `json:"revision"`
	OS             string `json:"os"`
	Arch           string `json:"arch"`
}

func currentHost(parallelism int) hostInfo {
	n, p := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	return hostInfo{
		NumCPU: n, GOMAXPROCS: p, Oversubscribed: parallelism > n || p > n,
		GoVersion: buildinfo.GoVersion(), Revision: buildinfo.Revision(),
		OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rcgp-bench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		workload = fs.String("workload", "all", "workload: "+strings.Join(names, ", ")+", or all")
		seed     = fs.Int64("seed", 1, "seed of the first run; further runs use the next seeds")
		runs     = fs.Int("runs", 1, "runs per workload, each on its own seed")
		seconds  = fs.Float64("seconds", 25, "length of a run's timed phase, in whole rounds")
		trace    = fs.String("trace", "0", "0: end-to-end metrics; 1 or a JSONL path: a traced run's per-layer metrics, spans written to the path (1: "+defaultSpans+")")
		out      = fs.String("o", "", "write the runs' records to this JSON file")
		child    = fs.Bool("child", false, "run as a child of a multi-run invocation (spans are appended)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, setups: setUps}
	spans := ""
	switch *trace {
	case "0", "false":
	case "1", "true":
		cfg.traced, spans = true, defaultSpans
	default:
		cfg.traced, spans = true, *trace
	}
	if spans != "" && !*child {
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "rcgp-bench:", err)
			return 2
		}
		if err := os.WriteFile(spans, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "rcgp-bench:", err)
			return 2
		}
	}

	var run []string
	if *workload == "all" {
		run = names
	} else {
		if _, err := workloadByName(*workload); err != nil {
			fmt.Fprintln(os.Stderr, "rcgp-bench:", err)
			return 2
		}
		run = []string{*workload}
	}

	if len(run) == 1 && *runs == 1 {
		cfg.workload = run[0]
		rec, sp, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcgp-bench:", err)
			return 1
		}
		if spans != "" {
			if err := appendSpans(spans, sp); err != nil {
				fmt.Fprintln(os.Stderr, "rcgp-bench: writing spans:", err)
				return 1
			}
		}
		if err := printRun(stdout, rec); err != nil {
			fmt.Fprintln(os.Stderr, "rcgp-bench:", err)
			return 1
		}
		if err := writeRecords(*out, []*runRecord{rec}); err != nil {
			fmt.Fprintln(os.Stderr, "rcgp-bench:", err)
			return 1
		}
		if !rec.Correct {
			return 1
		}
		return 0
	}

	// Several runs: each in a child process of this binary, in turn.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcgp-bench:", err)
		return 1
	}
	var recs []*runRecord
	status := 0
	for i := 0; i < *runs; i++ {
		for _, w := range run {
			s := *seed + int64(i)
			childArgs := []string{"-child", "-workload", w, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64)}
			if spans != "" {
				childArgs = append(childArgs, "-trace", spans)
			}
			rec, err := runChild(exe, childArgs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rcgp-bench: %s seed %d: %v\n", w, s, err)
				status = 1
				continue
			}
			fmt.Fprintf(stdout, "%-16s seed %-4d attempted %-5d failed %d\n", w, s, rec.Attempted, rec.Failed)
			if !rec.Correct {
				status = 1
			}
			recs = append(recs, rec)
		}
	}
	printSummary(stdout, recs)
	if err := writeRecords(*out, recs); err != nil {
		fmt.Fprintln(os.Stderr, "rcgp-bench:", err)
		return 1
	}
	return status
}

// runChild runs one single-run invocation and reads its record.
func runChild(exe string, args []string) (*runRecord, error) {
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, err
		}
		return &rec, nil
	}
	if runErr != nil {
		return nil, runErr
	}
	return nil, fmt.Errorf("no record in the output")
}

// printRun prints a run's metrics, its record, and the result line.
func printRun(w io.Writer, rec *runRecord) error {
	mode := "end-to-end"
	if rec.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "rcgp-bench %s seed %d: %s metrics; %d attempted, %d failed, units %v\n",
		rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed, rec.Units)
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "  failed:", e)
	}
	for _, name := range sortedNames(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	record, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	result, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n%s\n", recordPrefix, record, result)
	return err
}

// printSummary prints each (workload, metric)'s median and quartiles over
// the runs.
func printSummary(w io.Writer, recs []*runRecord) {
	groups := groupRuns(recs)
	fmt.Fprintf(w, "\n%-16s %-28s %14s %14s %14s %8s %s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "unit")
	for _, k := range sortedKeys(groups) {
		g := groups[k]
		q1, med, q3 := quartiles(g.values())
		fmt.Fprintf(w, "%-16s %-28s %14.6g %14.6g %14.6g %7.2f%% %s\n", k.workload, k.metric, med, q1, q3, 100*ratio(q3-q1, math.Abs(med)), g.unit)
	}
}

func writeRecords(path string, recs []*runRecord) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(recordSet{Schema: schema, Runs: recs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecords(path string) ([]*runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set recordSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if set.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, set.Schema, schema)
	}
	return set.Runs, nil
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
