package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// groupKey names one row of a summary or comparison.
type groupKey struct{ workload, metric string }

// group is one (workload, metric)'s values, by seed.
type group struct {
	unit   string
	bySeed map[int64]float64
}

func (g *group) values() []float64 {
	v := make([]float64, 0, len(g.bySeed))
	for _, x := range g.bySeed {
		v = append(v, x)
	}
	return v
}

func groupRuns(recs []*runRecord) map[groupKey]*group {
	out := make(map[groupKey]*group)
	for _, r := range recs {
		for name, m := range r.Metrics {
			k := groupKey{r.Workload, name}
			g := out[k]
			if g == nil {
				g = &group{unit: m.Unit, bySeed: make(map[int64]float64)}
				out[k] = g
			}
			g.bySeed[r.Seed] = m.Value
		}
	}
	return out
}

func sortedKeys(m map[groupKey]*group) []groupKey {
	keys := make([]groupKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, k int) bool {
		if keys[i].workload != keys[k].workload {
			return keys[i].workload < keys[k].workload
		}
		return keys[i].metric < keys[k].metric
	})
	return keys
}

// benchmarkMetric is one metric of BENCHMARK.json: its direction and, for
// end-to-end metrics, its bound.
type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

func readBenchmark(path string) (map[string]benchmarkMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchmarkMetric)
	for _, m := range append(f.EndToEnd, f.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// compareRow is one (workload, metric) of a comparison.
type compareRow struct {
	key                     groupKey
	unit                    string
	old, new                [3]float64 // q1, median, q3
	change                  float64    // (new - old) / |old|
	verdict                 string
	pairs, wins, oldN, newN int
}

// compareGroups applies the benchmark's rule to every (workload, metric)
// both sides measured:
//   - unresolved: either side's quartile spread exceeds the bound, unless
//     every run of the new side reads better than every run of the old;
//   - worse: the new median is worse than the old by more than the bound;
//   - better: the medians differ by more than the old side's quartile
//     spread and the new side wins at least 9 of 10 seed-paired runs;
//   - within bound: otherwise.
//
// Metrics without a bound (per-layer) get "better", "worse" or "same" by
// the last two rules alone.
func compareGroups(oldG, newG map[groupKey]*group, spec map[string]benchmarkMetric) []compareRow {
	var rows []compareRow
	for _, k := range sortedKeys(oldG) {
		o, n := oldG[k], newG[k]
		if n == nil {
			continue
		}
		r := compareRow{key: k, unit: o.unit, oldN: len(o.bySeed), newN: len(n.bySeed)}
		ov, nv := o.values(), n.values()
		r.old[0], r.old[1], r.old[2] = quartiles(ov)
		r.new[0], r.new[1], r.new[2] = quartiles(nv)
		r.change = ratio(r.new[1]-r.old[1], math.Abs(r.old[1]))
		m, known := spec[k.metric]
		sign := 1.0 // positive gain = better
		if known && m.Better == "lower" {
			sign = -1
		}
		better := func(a, b float64) bool { return sign*(a-b) > 0 }
		for s, x := range n.bySeed {
			if y, ok := o.bySeed[s]; ok {
				r.pairs++
				if better(x, y) {
					r.wins++
				}
			}
		}
		allBetter := true
		for _, x := range nv {
			for _, y := range ov {
				allBetter = allBetter && better(x, y)
			}
		}
		spread := math.Max(ratio(r.old[2]-r.old[0], math.Abs(r.old[1])), ratio(r.new[2]-r.new[0], math.Abs(r.new[1])))
		gain := sign * (r.new[1] - r.old[1])
		significant := math.Abs(gain) > r.old[2]-r.old[0] && r.pairs > 0 && 10*r.wins >= 9*r.pairs
		switch {
		case !known:
			r.verdict = "unknown metric"
		case m.Bound != nil && spread > *m.Bound && !allBetter:
			r.verdict = "unresolved"
		case m.Bound != nil && spread > *m.Bound:
			r.verdict = "better"
		case m.Bound != nil && -gain > *m.Bound*math.Abs(r.old[1]):
			r.verdict = "worse"
		case gain > 0 && significant:
			r.verdict = "better"
		case m.Bound != nil:
			r.verdict = "within bound"
		case gain < 0 && math.Abs(gain) > r.old[2]-r.old[0]:
			r.verdict = "worse"
		default:
			r.verdict = "same"
		}
		rows = append(rows, r)
	}
	return rows
}

func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rcgp-bench compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark description holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: rcgp-bench compare [-benchmark BENCHMARK.json] old.json new.json")
		return 2
	}
	spec, err := readBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcgp-bench compare:", err)
		return 2
	}
	var sides [2][]*runRecord
	for i := range sides {
		if sides[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "rcgp-bench compare:", err)
			return 2
		}
	}
	rows := compareGroups(groupRuns(sides[0]), groupRuns(sides[1]), spec)
	fmt.Fprintf(stdout, "%-16s %-28s %-6s %-34s %-34s %9s %7s %s\n",
		"workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "change", "bound", "verdict")
	for _, r := range rows {
		bound := "-"
		if b := spec[r.key.metric].Bound; b != nil {
			bound = fmt.Sprintf("%.0f%%", 100**b)
		}
		fmt.Fprintf(stdout, "%-16s %-28s %-6s %-34s %-34s %+8.2f%% %7s %s (n=%d/%d, %d/%d pairs won)\n",
			r.key.workload, r.key.metric, r.unit, quart(r.old), quart(r.new), 100*r.change, bound,
			r.verdict, r.oldN, r.newN, r.wins, r.pairs)
	}
	return 0
}

func quart(q [3]float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2])
}
