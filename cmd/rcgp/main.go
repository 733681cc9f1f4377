// Command rcgp runs the end-to-end RQFP synthesis flow of the RCGP paper:
// it reads a combinational design (Verilog, BLIF, AIGER, PLA, or RevLib
// .real — or one of the built-in benchmark circuits), runs classical logic
// synthesis, converts to an RQFP netlist with splitter insertion, optimizes
// it with Cartesian genetic programming, and reports the paper's cost
// metrics after buffer insertion.
//
// Usage:
//
//	rcgp -bench decoder_2_4 -gens 50000
//	rcgp -in adder.v -o adder.rqfp
//	rcgp -in circuit.blif -format blif -time 30s -seed 7
//	rcgp -bench mux4 -optimizer anneal -seed 2
//	rcgp -bench hwb7 -metrics -trace run.jsonl -debug-addr localhost:6060
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	rcgp "github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/internal/buildinfo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rcgp:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		inPath    = flag.String("in", "", "input design file (.v, .blif, .aag, .pla, .real)")
		format    = flag.String("format", "", "input format override: verilog|blif|aiger|pla|real")
		benchName = flag.String("bench", "", "use a built-in benchmark circuit instead of -in")
		list      = flag.Bool("list", false, "list built-in benchmark circuits and exit")
		outPath   = flag.String("o", "", "write the optimized RQFP netlist to this file")
		vlogPath  = flag.String("verilog-out", "", "also export the result as structural Verilog")
		gens      = flag.Int("gens", 20000, "CGP generation budget")
		lambda    = flag.Int("lambda", 4, "CGP offspring per generation (λ)")
		mu        = flag.Float64("mu", 0.05, "CGP mutation rate (μ); the paper uses 1")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 1, "goroutines evaluating offspring concurrently (0 = GOMAXPROCS); deterministic per seed")
		islands   = flag.Int("islands", 1, "independent (1+λ) populations with periodic ring migration")
		optimizer = flag.String("optimizer", "cgp", "search engine: cgp (paper), anneal, hybrid")
		budget    = flag.Duration("time", 0, "wall-clock budget for the evolution (0 = none)")
		templates = flag.String("templates", "", "template library for search-free rewriting: 'starter' (shipped), a JSONL path, or empty for none")
		initOnly  = flag.Bool("init-only", false, "stop after initialization (baseline)")
		windows   = flag.Int("window-rounds", 0, "rounds of windowed resynthesis after the evolution")
		chrom     = flag.Bool("chromosome", false, "print the CGP chromosome string")
		quiet     = flag.Bool("q", false, "suppress progress output")
		tracePath = flag.String("trace", "", "write a JSONL trace of the run to this file")
		flightOut = flag.String("flight", "", "write the flight-recorder trajectory (JSONL, one sample per line) to this file")
		flightGen = flag.Int("flight-every", 500, "flight sampling cadence in generations (with -flight)")
		metrics   = flag.Bool("metrics", false, "print the telemetry summary (stages, CGP, CEC/SAT) to stderr")
		debugAddr = flag.String("debug-addr", "", "serve pprof on this address (e.g. localhost:6060)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile (taken after synthesis) to this file")
		version   = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("rcgp"))
		return nil
	}
	if *list {
		for _, n := range rcgp.BenchmarkNames() {
			fmt.Println(n)
		}
		return nil
	}
	design, name, err := loadDesign(*inPath, *format, *benchName)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Printf("design %s: %d inputs, %d outputs\n", name, design.NumInputs(), design.NumOutputs())
	}

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	opt := rcgp.Options{
		Generations:        *gens,
		Lambda:             *lambda,
		MutationRate:       *mu,
		Seed:               *seed,
		Workers:            *workers,
		Islands:            *islands,
		TimeBudget:         *budget,
		InitializationOnly: *initOnly,
		WindowRounds:       *windows,
		Optimizer:          *optimizer,
	}
	if *templates != "" {
		lib, err := openTemplates(*templates)
		if err != nil {
			return fmt.Errorf("opening template library: %w", err)
		}
		if !*quiet {
			fmt.Printf("template library: %d classes\n", lib.Len())
		}
		opt.Templates = lib
	}
	if !*quiet {
		opt.Progress = func(gen, gates, garbage int) {
			fmt.Printf("  gen %-8d n_r=%-5d n_g=%-5d\n", gen, gates, garbage)
		}
	}
	if *debugAddr != "" {
		startDebugServer(*debugAddr)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		opt.Trace = f
	}
	var flight *flightWriter
	if *flightOut != "" {
		f, err := os.Create(*flightOut)
		if err != nil {
			return err
		}
		defer f.Close()
		flight = newFlightWriter(f)
		opt.FlightEvery = *flightGen
		opt.FlightSink = flight.sample
	}
	// Ctrl-C cancels the synthesis context: the evolution (and any
	// in-flight SAT proof) stops promptly and the validated best-so-far
	// circuit is reported. A second Ctrl-C kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := design.SynthesizeContext(ctx, opt)
	if err != nil {
		return err
	}
	if flight != nil {
		if err := flight.finish(); err != nil {
			return fmt.Errorf("writing -flight output: %w", err)
		}
		if !*quiet {
			fmt.Printf("wrote %s (%d flight samples)\n", *flightOut, flight.n)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	if ctx.Err() != nil && !*quiet {
		fmt.Fprintln(os.Stderr, "rcgp: interrupted — reporting best circuit found so far")
	}
	if !*quiet {
		for _, sk := range res.Telemetry.Skipped {
			fmt.Fprintf(os.Stderr, "rcgp: pass %s skipped: %s\n", sk.Name, sk.Reason)
		}
	}
	if *metrics {
		writeMetrics(os.Stderr, res)
	}
	fmt.Printf("initialization: %s\n", res.Initial().Stats())
	fmt.Printf("rcgp:           %s\n", res.Stats())
	if tr := res.Telemetry.Template; tr != nil {
		fmt.Printf("templates:      windows=%d hits=%d rewrites=%d gates %d→%d learned=%d\n",
			tr.Windows, tr.Hits, tr.Rewrites, tr.GatesBefore, tr.GatesAfter, tr.Learned)
	}
	fmt.Printf("runtime %.2fs, %d generations, %d evaluations\n",
		res.Runtime.Seconds(), res.Generations, res.Evaluations)

	ok, err := design.Verify(res.Circuit())
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("internal error: result failed verification")
	}
	if !*quiet {
		fmt.Println("formal verification: equivalent")
	}
	if *chrom {
		fmt.Println(res.Circuit().Chromosome())
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Circuit().WriteText(f); err != nil {
			return err
		}
		if !*quiet {
			fmt.Printf("wrote %s\n", *outPath)
		}
	}
	if *vlogPath != "" {
		f, err := os.Create(*vlogPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Circuit().WriteVerilog(f, "rqfp_top"); err != nil {
			return err
		}
		if !*quiet {
			fmt.Printf("wrote %s\n", *vlogPath)
		}
	}
	return nil
}

// openTemplates resolves the -templates flag: the shipped starter library
// or a JSONL file (every entry re-verified on load).
func openTemplates(spec string) (*rcgp.TemplateLibrary, error) {
	if spec == "starter" {
		return rcgp.StarterTemplates()
	}
	lib, rejected, err := rcgp.OpenTemplateLibrary(spec)
	if err != nil {
		return nil, err
	}
	if rejected > 0 {
		fmt.Fprintf(os.Stderr, "rcgp: template library %s: %d entries rejected by re-verification\n", spec, rejected)
	}
	return lib, nil
}

func loadDesign(inPath, format, benchName string) (*rcgp.Design, string, error) {
	switch {
	case benchName != "":
		d, err := rcgp.Benchmark(benchName)
		return d, benchName, err
	case inPath != "":
		f, err := os.Open(inPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		if format == "" {
			format = formatFromExt(inPath)
		}
		d, err := parseAs(f, format)
		return d, filepath.Base(inPath), err
	default:
		return nil, "", fmt.Errorf("need -in <file> or -bench <name> (try -list)")
	}
}

func formatFromExt(path string) string {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".v", ".sv":
		return "verilog"
	case ".blif":
		return "blif"
	case ".aag", ".aig":
		return "aiger"
	case ".pla":
		return "pla"
	case ".real":
		return "real"
	default:
		return ""
	}
}

func parseAs(r io.Reader, format string) (*rcgp.Design, error) {
	switch format {
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
	default:
		return nil, fmt.Errorf("unknown format %q (use -format verilog|blif|aiger|pla|real)", format)
	}
}
