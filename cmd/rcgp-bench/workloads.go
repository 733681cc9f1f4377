package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/reversible-eda/rcgp"
)

// workload is one closed-loop traffic mix. Its inputs are generated from
// the run seed; the program sees only those inputs.
type workload struct {
	name string
	why  string
	// tailPct is the percentile reported as job_tail_ms: the highest one
	// that keeps at least ten samples beyond it in the slowest 25-second
	// run recorded.
	tailPct float64
	// fixedUnits is how many units (per client) every timed run completes,
	// however slow the host: about half of what a 25-second run does. They
	// are the jobs jj_total sums over.
	fixedUnits  int
	parallelism int // CPU-bound goroutines; above NumCPU the record is marked oversubscribed
	setup       func(s *setupCtx) (env, error)
}

// env is a set-up workload: inputs generated, system under test started,
// warm-up job done.
type env interface {
	// run executes one timed phase in whole units (rounds of jobs, or
	// request cycles per client) until lim is reached, timing cal where
	// it can pause between units.
	run(lim limit, tr *tracer, cal *calibrator) (*phase, error)
	close()
}

// timedPhase runs e's timed phase between calibration measurements and
// sets the phase's slowdown.
func timedPhase(w workload, e env, lim limit, tr *tracer) (*phase, error) {
	cal := newCalibrator(w.parallelism)
	around := func() {
		for i := 0; i < calAround; i++ {
			cal.measure()
		}
	}
	around()
	p, err := e.run(lim, tr, cal)
	if err != nil {
		return nil, err
	}
	around()
	p.slowdown = cal.slowdown()
	return p, nil
}

// calAround is how many calibration measurements are taken on each side of
// the phase. They are all serve-mix has: with one on each side, a run read
// slowdown 2.8 while its requests ran at the usual speed, so the median
// needs several.
const calAround = 5

// limit ends a phase after exactly counts[c] units of client c, or near a
// deadline once every client has done min units: a client starts another
// unit only while at least half of its mean unit time remains, so every
// unit started is finished and a run overshoots or undershoots by half a
// unit on average.
type limit struct {
	start, deadline time.Time
	min             int
	counts          []int
}

func (l limit) reached(client, done int) bool {
	if l.counts != nil {
		return done >= l.counts[client]
	}
	if done < max(l.min, 1) {
		return false
	}
	now := time.Now()
	return !now.Add(now.Sub(l.start) / time.Duration(2*done)).Before(l.deadline)
}

// phase is what one timed phase produced.
type phase struct {
	jobs   []*job
	counts []int
	// wall excludes the time spent calibrating.
	wall     time.Duration
	slowdown float64
	// Library and cache state read at the end of the phase; cache counters
	// are deltas over the phase.
	libEntries                       int
	cacheHits, cacheMiss, cacheStore int64
	rejected                         int64
}

// setupCtx carries the seed and the tracer into a workload's set-up and
// times the template-library load for template.load_share.
type setupCtx struct {
	seed     int64
	toy      bool
	tr       *tracer
	root     int
	loadTime time.Duration
}

func (s *setupCtx) span(name string, fn func() error) error {
	id := s.tr.begin("setup", s.root, name)
	err := fn()
	s.tr.end(id, nil)
	return err
}

func (s *setupCtx) starterTemplates() (*rcgp.TemplateLibrary, error) {
	var lib *rcgp.TemplateLibrary
	t0 := time.Now()
	err := s.span("rcgp.StarterTemplates", func() (err error) {
		lib, err = rcgp.StarterTemplates()
		return err
	})
	s.loadTime = time.Since(t0)
	return lib, err
}

var workloads = []workload{
	{
		name:        "cgp-hwb8",
		why:         "hwb8 (1689 initial gates) with an exhaustive oracle: the CGP engine and RQFP simulation dominate; no SAT, templates, cache or HTTP",
		tailPct:     60,
		fixedUnits:  16,
		parallelism: 2,
		setup:       setupHWB8,
	},
	{
		name:        "cec-wide",
		why:         "16-24-input adders and comparators: every candidate that survives simulation goes to the SAT miter",
		tailPct:     65,
		fixedUnits:  2,
		parallelism: 1,
		setup:       setupCECWide,
	},
	{
		name:        "suite-templates",
		why:         "the 19 small paper benchmarks sharing one learning template library: many short jobs dominated by the template pass",
		tailPct:     85,
		fixedUnits:  3,
		parallelism: 1,
		setup:       setupSuite,
	},
	{
		name:        "serve-mix",
		why:         "2 HTTP clients, 1 cold search per 3 NPN-variant cache hits: cache, re-verify and HTTP in the median, search and templates in the tail",
		tailPct:     98,
		fixedUnits:  60,
		parallelism: 2,
		setup:       setupServe,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// mix derives a stream seed from the run seed and the parts naming the
// stream (splitmix64 finalizer), so every job's seed depends only on the
// run seed and its position.
func mix(seed int64, parts ...int64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9e3779b97f4a7c15 + uint64(p)
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// libSpec is one design a library workload synthesizes.
type libSpec struct {
	label  string
	design *rcgp.Design
	ref    reference
}

// libraryEnv runs jobs in this process through Design.Synthesize, one at a
// time. A round is every spec once, in an order drawn from the seed.
type libraryEnv struct {
	seed  int64
	specs []libSpec
	opt   rcgp.Options
	lib   *rcgp.TemplateLibrary
}

func (e *libraryEnv) run(lim limit, tr *tracer, cal *calibrator) (*phase, error) {
	p := &phase{counts: []int{0}}
	spent, start := cal.spent, time.Now()
	for r := 0; !lim.reached(0, r); r++ {
		order := rand.New(rand.NewSource(mix(e.seed, int64(r)))).Perm(len(e.specs))
		for _, k := range order {
			spec := e.specs[k]
			rt := tr
			if !tracedUnit(len(p.jobs)) {
				rt = nil
			}
			cal.measure()
			j := e.synthesize(rt, fmt.Sprintf("r%03d/%s", r, spec.label), spec, e.options(mix(e.seed, int64(r), int64(k))))
			j.seq, j.unit = len(p.jobs), r
			p.jobs = append(p.jobs, j)
		}
		p.counts[0] = r + 1
	}
	p.wall = time.Since(start) - (cal.spent - spent)
	if e.lib != nil {
		p.libEntries = e.lib.Len()
	}
	return p, nil
}

func (e *libraryEnv) options(seed int64) rcgp.Options {
	opt := e.opt
	opt.Seed = seed
	opt.Templates = e.lib
	return opt
}

func (e *libraryEnv) synthesize(tr *tracer, trace string, spec libSpec, opt rcgp.Options) *job {
	sp := tr.begin(trace, 0, "rcgp.Synthesize")
	t0 := time.Now()
	res, err := spec.design.Synthesize(opt)
	j := &job{trace: trace, label: spec.label, latency: time.Since(t0), ref: spec.ref, err: err, traced: tr != nil}
	if err == nil {
		j.circuit = res.Circuit()
		j.jjs = res.Stats().JJs
		j.flow = flowFromResult(res, j.latency)
	}
	if tr != nil {
		tr.end(sp, j.counters())
	}
	return j
}

// warmUp runs one short untimed job on spec, with a seed outside the
// measured set.
func (e *libraryEnv) warmUp(s *setupCtx, spec libSpec) error {
	opt := e.options(warmUpSeed)
	opt.Generations = min(opt.Generations, warmUpGenerations)
	return s.span("warmup", func() error {
		return e.synthesize(nil, "warmup", spec, opt).err
	})
}

// The warm-up job exercises every stage once without lengthening the
// set-up. Its design and seed do not depend on the run seed, so set-up
// does the same work on every seed and setup_s varies only with the host.
const (
	warmUpGenerations = 50
	warmUpSeed        = 0x5eed
)

func (e *libraryEnv) close() {}

// setupHWB8: 24-41 jobs per 25-s run on distinct seeds, Workers 2 so the
// parallel evaluation core is in play.
func setupHWB8(s *setupCtx) (env, error) {
	e := &libraryEnv{seed: s.seed, opt: rcgp.Options{Generations: 500, Lambda: 8, Workers: 2}}
	if s.toy {
		e.opt.Generations = 10
	}
	err := s.span("inputs", func() error {
		spec, err := benchmarkSpec("hwb8")
		e.specs = []libSpec{spec}
		return err
	})
	if err != nil {
		return nil, err
	}
	return e, e.warmUp(s, e.specs[0])
}

func benchmarkSpec(name string) (libSpec, error) {
	d, err := rcgp.Benchmark(name)
	if err != nil {
		return libSpec{}, err
	}
	ref, err := benchmarkReference(name)
	return libSpec{label: name, design: d, ref: ref}, err
}

// setupSuite: the 19 paper benchmarks other than hwb8, one shared starter
// template library that every job matches against and learns into.
func setupSuite(s *setupCtx) (env, error) {
	e := &libraryEnv{seed: s.seed, opt: rcgp.Options{Generations: 1000}}
	names := rcgp.BenchmarkNames()
	if s.toy {
		e.opt.Generations = 40
		names = []string{"1-bit full adder", "decoder_2_4", "4gt10", "ham3"}
	}
	err := s.span("inputs", func() error {
		for _, name := range names {
			if name == "hwb8" {
				continue
			}
			spec, err := benchmarkSpec(name)
			if err != nil {
				return err
			}
			e.specs = append(e.specs, spec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if e.lib, err = s.starterTemplates(); err != nil {
		return nil, err
	}
	return e, e.warmUp(s, e.specs[0])
}

// setupCECWide: ripple-carry adders and magnitude comparators over two
// n-bit operands, n = 8..12 (16-24 inputs), Generations 2000 and library
// defaults otherwise. The seed shuffles each design's input order; the
// warm-up adder keeps its inputs in order.
func setupCECWide(s *setupCtx) (env, error) {
	e := &libraryEnv{seed: s.seed, opt: rcgp.Options{Generations: 2000}}
	widths := []int{8, 9, 10, 11, 12}
	if s.toy {
		e.opt.Generations = 40
		widths = []int{8}
	}
	var warm libSpec
	err := s.span("inputs", func() (err error) {
		rng := rand.New(rand.NewSource(mix(s.seed, -2)))
		for _, n := range widths {
			for _, kind := range []string{"add", "cmp"} {
				spec, err := wideSpec(kind, n, rng.Perm(2*n))
				if err != nil {
					return err
				}
				e.specs = append(e.specs, spec)
			}
		}
		in := make([]int, 2*widths[0])
		for i := range in {
			in[i] = i
		}
		warm, err = wideSpec("add", widths[0], in)
		return err
	})
	if err != nil {
		return nil, err
	}
	return e, e.warmUp(s, warm)
}

func wideSpec(kind string, n int, order []int) (libSpec, error) {
	src, ref := wideDesign(kind, n, order)
	d, err := rcgp.FromVerilog(strings.NewReader(src))
	if err != nil {
		return libSpec{}, fmt.Errorf("%s%d: %w", kind, n, err)
	}
	return libSpec{label: fmt.Sprintf("%s%d", kind, n), design: d, ref: ref}, nil
}

// wideDesign writes a structural-Verilog adder ("add": s = a + b, n+1
// outputs) or comparator ("cmp": gt = a > b, eq = a == b) over operands
// a and b of n bits. order[i] names input i: values below n are bits of a,
// the rest bits of b. The reference computes the same function from the
// operands directly.
func wideDesign(kind string, n int, order []int) (string, reference) {
	names := make([]string, 2*n)
	pos := make([]int, 2*n) // operand bit → input index
	for i, v := range order {
		if v < n {
			names[i] = fmt.Sprintf("a%d", v)
		} else {
			names[i] = fmt.Sprintf("b%d", v-n)
		}
		pos[v] = i
	}
	operands := func(x uint64) (a, b uint64) {
		for k := 0; k < n; k++ {
			a |= x >> uint(pos[k]) & 1 << uint(k)
			b |= x >> uint(pos[n+k]) & 1 << uint(k)
		}
		return a, b
	}
	var sb strings.Builder
	var outs []string
	var ref reference
	if kind == "add" {
		for k := 0; k <= n; k++ {
			outs = append(outs, fmt.Sprintf("s%d", k))
		}
		ref = reference{inputs: 2 * n, outputs: n + 1, eval: func(x uint64) uint64 {
			a, b := operands(x)
			return a + b
		}}
	} else {
		outs = []string{"gt", "eq"}
		ref = reference{inputs: 2 * n, outputs: 2, eval: func(x uint64) uint64 {
			a, b := operands(x)
			var y uint64
			if a > b {
				y |= 1
			}
			if a == b {
				y |= 2
			}
			return y
		}}
	}
	in, out := strings.Join(names, ", "), strings.Join(outs, ", ")
	fmt.Fprintf(&sb, "module %s%d(%s, %s);\ninput %s;\noutput %s;\n", kind, n, in, out, in, out)
	if kind == "add" {
		carry := "1'b0"
		for k := 0; k < n; k++ {
			fmt.Fprintf(&sb, "wire p%d, c%d;\nassign p%d = a%d ^ b%d;\n", k, k+1, k, k, k)
			fmt.Fprintf(&sb, "assign s%d = p%d ^ %s;\n", k, k, carry)
			fmt.Fprintf(&sb, "assign c%d = (a%d & b%d) | (p%d & %s);\n", k+1, k, k, k, carry)
			carry = fmt.Sprintf("c%d", k+1)
		}
		fmt.Fprintf(&sb, "assign s%d = %s;\n", n, carry)
	} else {
		gt, eq := "1'b0", "1'b1"
		for k := 0; k < n; k++ { // least significant bit first
			fmt.Fprintf(&sb, "wire g%d, e%d;\n", k, k)
			fmt.Fprintf(&sb, "assign g%d = (a%d & ~b%d) | (~(a%d ^ b%d) & %s);\n", k, k, k, k, k, gt)
			fmt.Fprintf(&sb, "assign e%d = ~(a%d ^ b%d) & %s;\n", k, k, k, eq)
			gt, eq = fmt.Sprintf("g%d", k), fmt.Sprintf("e%d", k)
		}
		fmt.Fprintf(&sb, "assign gt = %s;\nassign eq = %s;\n", gt, eq)
	}
	sb.WriteString("endmodule\n")
	return sb.String(), ref
}
