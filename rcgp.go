// Package rcgp is the public facade of the RCGP reproduction: an automatic
// synthesis framework for Reversible Quantum-Flux-Parametron (RQFP) logic
// circuits based on Cartesian genetic programming (Fu, Wille, Ho —
// DAC 2024).
//
// The typical flow mirrors the paper's Fig. 2:
//
//	design, _ := rcgp.FromVerilog(file)         // or BLIF / AIGER / PLA / RevLib .real
//	result, _ := design.Synthesize(rcgp.Options{Generations: 200000})
//	fmt.Println(result.Stats())                  // n_r, n_b, JJs, n_d, n_g
//	result.WriteText(out)                        // serialized RQFP netlist
//
// Everything underneath — the AIG/MIG classical synthesis, the RQFP
// substrate, the CGP engine, the CDCL SAT solver used for formal
// equivalence checking and for the exact-synthesis baseline — lives in
// internal/ packages and is exercised through this API by the examples and
// command-line tools.
package rcgp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/aiger"
	"github.com/reversible-eda/rcgp/internal/aqfp"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/blif"
	"github.com/reversible-eda/rcgp/internal/cache"
	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/exact"
	"github.com/reversible-eda/rcgp/internal/flow"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/pla"
	"github.com/reversible-eda/rcgp/internal/real"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/template"
	"github.com/reversible-eda/rcgp/internal/tt"
	"github.com/reversible-eda/rcgp/internal/verilog"
)

// Design is a combinational specification awaiting RQFP synthesis.
type Design struct {
	aig  *aig.AIG
	name string
}

// FromVerilog reads a gate-level structural Verilog module.
func FromVerilog(r io.Reader) (*Design, error) {
	a, err := verilog.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Design{aig: a}, nil
}

// FromBLIF reads a combinational BLIF model.
func FromBLIF(r io.Reader) (*Design, error) {
	a, err := blif.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Design{aig: a}, nil
}

// FromAIGER reads an AIGER file, ASCII (.aag) or binary (.aig).
func FromAIGER(r io.Reader) (*Design, error) {
	a, err := aiger.ParseAny(r)
	if err != nil {
		return nil, err
	}
	return &Design{aig: a}, nil
}

// FromPLA reads an Espresso PLA description.
func FromPLA(r io.Reader) (*Design, error) {
	a, err := pla.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Design{aig: a}, nil
}

// FromREAL reads a RevLib .real reversible circuit and uses its
// non-constant inputs / non-garbage outputs as the specification.
func FromREAL(r io.Reader) (*Design, error) {
	c, err := real.Parse(r)
	if err != nil {
		return nil, err
	}
	a, err := c.ToAIG()
	if err != nil {
		return nil, err
	}
	return &Design{aig: a}, nil
}

// FromTruthTablesHex builds a design from hexadecimal truth tables over
// numInputs variables (one string per output, MSB nibble first — the
// format tt.TT.Hex produces).
func FromTruthTablesHex(numInputs int, outputs []string) (*Design, error) {
	if len(outputs) == 0 {
		return nil, errors.New("rcgp: no outputs")
	}
	tables := make([]tt.TT, len(outputs))
	for i, h := range outputs {
		f, err := tt.FromHex(numInputs, h)
		if err != nil {
			return nil, err
		}
		tables[i] = f
	}
	return &Design{aig: aig.FromTruthTables(tables)}, nil
}

// FromFunc builds a design by sampling f on all 2^numInputs assignments;
// bit o of f's result drives output o.
func FromFunc(numInputs, numOutputs int, f func(x uint) uint) *Design {
	tables := make([]tt.TT, numOutputs)
	for o := 0; o < numOutputs; o++ {
		o := o
		tables[o] = tt.FromFunc(numInputs, func(s uint) bool { return f(s)>>uint(o)&1 == 1 })
	}
	return &Design{aig: aig.FromTruthTables(tables)}
}

// Benchmark returns one of the paper's evaluation circuits by name (e.g.
// "decoder_2_4", "hwb8", "intdiv7"; RevLib-style aliases like "hwb8_64"
// are accepted).
func Benchmark(name string) (*Design, error) {
	c, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Design{aig: aig.FromTruthTables(c.Tables), name: c.Name}, nil
}

// BenchmarkNames lists all built-in benchmark circuits in sorted order.
func BenchmarkNames() []string {
	var names []string
	for _, c := range bench.All() {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	return names
}

// NumInputs returns the design's primary input count.
func (d *Design) NumInputs() int { return d.aig.NumPIs() }

// NumOutputs returns the design's primary output count.
func (d *Design) NumOutputs() int { return d.aig.NumPOs() }

// Name returns the benchmark name, if the design came from Benchmark.
func (d *Design) Name() string { return d.name }

// CacheKey returns the design's NPN-canonical result-cache key — the same
// signature Synthesize uses for cache lookups, and the key a fleet
// coordinator shards jobs by (identical functions always hash to the same
// shard, keeping each shard's cache hot). Designs outside the cacheable
// range (more than 14 inputs or 64 outputs) return an error; callers
// shard those by a request digest instead.
func (d *Design) CacheKey() (string, error) {
	if d.aig.NumPIs() < 1 || d.aig.NumPIs() > cache.MaxInputs ||
		d.aig.NumPOs() < 1 || d.aig.NumPOs() > cache.MaxOutputs {
		return "", cache.ErrUncacheable
	}
	key, _, err := cache.Signature(d.aig.TruthTables())
	return key, err
}

// Options tunes Synthesize. The zero value uses laptop-scale defaults
// (the paper runs 5·10⁷ generations on a cluster; see EXPERIMENTS.md).
type Options struct {
	// Generations bounds the CGP evolution (default 20000).
	Generations int
	// Lambda is the offspring count per generation (default 4).
	Lambda int
	// MutationRate is the CGP mutation rate μ (default 0.05; paper: 1).
	MutationRate float64
	// Seed makes runs reproducible.
	Seed int64
	// Workers bounds the goroutines evaluating one generation's offspring
	// concurrently (useful up to min(Lambda, GOMAXPROCS)). Results are
	// bit-identical to Workers = 1 on the same seed. Default 1.
	Workers int
	// Islands runs that many independent (1+λ) populations with periodic
	// best-individual ring migration, within the Workers bound: at most
	// Workers goroutines evaluate at once. Default 1 (no island model).
	Islands int
	// TimeBudget bounds the wall-clock time of the evolution.
	TimeBudget time.Duration
	// InitializationOnly skips the CGP stage, yielding the paper's
	// heuristic baseline.
	InitializationOnly bool
	// WindowRounds, when positive, follows the global evolution with that
	// many rounds of windowed CGP resynthesis (for large circuits).
	WindowRounds int
	// Resubstitution finishes with the deterministic simulation-driven
	// resubstitution pass (circuits up to 14 inputs).
	Resubstitution bool
	// Optimizer selects the search engine: "" or "cgp" for the paper's
	// (1+λ) evolutionary strategy, "anneal" for simulated annealing over
	// the same chromosome, "hybrid" for CGP followed by annealing.
	Optimizer string
	// Cache, when non-nil, is consulted before the search (a hit returns a
	// stored, formally re-verified netlist for the function's NPN class
	// without evolving anything) and updated with the result afterwards.
	// Only designs within the cacheable range (≤14 inputs, ≤64 outputs)
	// participate; others synthesize normally.
	Cache *Cache
	// Templates, when non-nil, enables the search-free template-rewrite
	// pass: after the search stages, contiguous netlist windows are
	// pattern-matched against the library's precomputed minimal
	// implementations and rewritten wherever that strictly shrinks the
	// window, each rewrite formally verified against the specification.
	// Small scanned windows are also learned back into the library.
	Templates *TemplateLibrary
	// CheckpointEvery, when positive, snapshots the search every that many
	// generations and hands the snapshot to CheckpointSink. Requires
	// Islands ≤ 1 (the single-population determinism contract).
	CheckpointEvery int
	// CheckpointSink receives periodic snapshots of the running search.
	// It is called synchronously from the evolution coordinator: persist
	// quickly or copy and hand off.
	CheckpointSink func(Checkpoint)
	// Resume restarts the search from a snapshot instead of the heuristic
	// initialization. The snapshot's Seed and Lambda must match the
	// options, and the remaining Generations budget counts from the
	// snapshot's generation.
	Resume *Checkpoint
	// Progress, when non-nil, receives periodic generation updates.
	Progress func(generation, gates, garbage int)
	// FlightEvery, when positive, enables the search flight recorder: the
	// evolution samples its trajectory (generation, best costs, evaluation
	// split, throughput) every that many generations, keeps the most recent
	// FlightCap samples on Result.Flight, and forwards each sample to
	// FlightSink as it is taken. Sampling draws no randomness, so results
	// stay bit-identical per seed. Like checkpointing it requires
	// Islands ≤ 1 (with more islands the recorder is disabled).
	FlightEvery int
	// FlightCap bounds the samples retained on Result.Flight (ring-buffer
	// semantics; default 1024). FlightSink sees every sample regardless.
	FlightCap int
	// FlightSink, when non-nil, receives every flight sample live. It is
	// called synchronously from the evolution coordinator, so it must not
	// block for long.
	FlightSink func(FlightSample)
	// Trace, when non-nil, receives a line-delimited JSON event stream of
	// the run (spans, generation samples, SAT escalations). The writer is
	// serialized internally, so an os.File is fine.
	Trace io.Writer
}

// Checkpoint is a restartable snapshot of an in-flight search: the current
// parent chromosome plus the counter state needed to fast-forward the
// deterministic RNG streams. Resuming from a checkpoint reproduces the
// uninterrupted run's trajectory of adopted parents exactly, so a crashed
// or evicted job loses at most CheckpointEvery generations of progress and
// none of its best-so-far fitness. The zero value is not a valid
// checkpoint; obtain them from Options.CheckpointSink.
type Checkpoint struct {
	// Generation counts completed generations at snapshot time.
	Generation int `json:"generation"`
	// Evaluations mirrors the fitness-evaluation counter.
	Evaluations int64 `json:"evaluations"`
	// Seed and Lambda pin the options the snapshot was taken under; Resume
	// rejects a mismatch rather than silently diverging.
	Seed   int64 `json:"seed"`
	Lambda int   `json:"lambda"`
	// Chromosome is the parent genotype in the textual netlist format.
	Chromosome string `json:"chromosome"`
	// Gates, Garbage and Buffers mirror the parent fitness so monitors can
	// report best-so-far without parsing the chromosome.
	Gates   int `json:"gates"`
	Garbage int `json:"garbage"`
	Buffers int `json:"buffers"`
}

func checkpointFromCore(cp core.Checkpoint) Checkpoint {
	return Checkpoint{
		Generation: cp.Generation, Evaluations: cp.Evaluations,
		Seed: cp.Seed, Lambda: cp.Lambda, Chromosome: cp.Chromosome,
		Gates: cp.Gates, Garbage: cp.Garbage, Buffers: cp.Buffers,
	}
}

func (cp Checkpoint) toCore() *core.Checkpoint {
	return &core.Checkpoint{
		Generation: cp.Generation, Evaluations: cp.Evaluations,
		Seed: cp.Seed, Lambda: cp.Lambda, Chromosome: cp.Chromosome,
		Gates: cp.Gates, Garbage: cp.Garbage, Buffers: cp.Buffers,
	}
}

// Cache is the NPN-canonical synthesis result cache: results are stored
// under a signature of the specification's NPN equivalence class, so a
// re-submitted function — or any input-permuted/negated variant of one —
// is answered from the cache. Safe for concurrent use across Synthesize
// calls; share one Cache between all jobs of a server.
type Cache struct {
	c *cache.Cache
}

// OpenCache returns a cache persisted under dir (created if missing); any
// existing entries are replayed so restarts keep warm state. memEntries
// bounds the in-memory tier (0 for the default).
func OpenCache(dir string, memEntries int) (*Cache, error) {
	c, err := cache.Open(dir, memEntries)
	if err != nil {
		return nil, err
	}
	return &Cache{c: c}, nil
}

// NewMemoryCache returns a cache with no persistent tier.
func NewMemoryCache(memEntries int) *Cache {
	return &Cache{c: cache.NewMemory(memEntries)}
}

// Close flushes and closes the persistent tier, if any.
func (c *Cache) Close() error { return c.c.Close() }

// CacheEntry is one replicable canonical-result record: the netlist of an
// NPN class representative under its class key. Entries are the unit of
// cache replication between fleet nodes.
type CacheEntry struct {
	Key     string `json:"key"`
	NumPI   int    `json:"num_pi"`
	NumPO   int    `json:"num_po"`
	Netlist string `json:"netlist"`
}

// SetReplicator registers fn to receive every entry a local synthesis
// stores into the cache (after store-side verification). Entries adopted
// via Merge do not re-trigger fn, so replication cannot loop. Call before
// sharing the cache between jobs.
func (c *Cache) SetReplicator(fn func(CacheEntry)) {
	if fn == nil {
		c.c.SetReplicator(nil)
		return
	}
	c.c.SetReplicator(func(e cache.Entry) {
		fn(CacheEntry{Key: e.Key, NumPI: e.NumPI, NumPO: e.NumPO, Netlist: e.Netlist})
	})
}

// Merge adopts a cache entry replicated from another node. The netlist is
// re-simulated and re-verified locally before it is stored — a corrupt
// replication payload can never poison this cache. Entries whose key is
// already present are skipped (local results win).
func (c *Cache) Merge(e CacheEntry) error {
	return c.c.Merge(cache.Entry{Key: e.Key, NumPI: e.NumPI, NumPO: e.NumPO, Netlist: e.Netlist})
}

// Entries snapshots every entry the cache holds (memory and disk tiers),
// sorted by key, for seeding a replication peer.
func (c *Cache) Entries() []CacheEntry {
	dump := c.c.Dump()
	out := make([]CacheEntry, len(dump))
	for i, e := range dump {
		out[i] = CacheEntry{Key: e.Key, NumPI: e.NumPI, NumPO: e.NumPO, Netlist: e.Netlist}
	}
	return out
}

// CacheStats is a point-in-time view of cache activity.
type CacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Stores       int64 `json:"stores"`
	BadEntries   int64 `json:"bad_entries"`
	MemEntries   int   `json:"mem_entries"`
	DiskEntries  int   `json:"disk_entries"`
	DiskPromotes int64 `json:"disk_promotes"`
	// Replication counters: remote entries adopted, skipped (key already
	// present), and refused by store-side re-verification.
	Merges       int64 `json:"merges"`
	MergeSkips   int64 `json:"merge_skips"`
	MergeRejects int64 `json:"merge_rejects"`
}

// Stats snapshots the cache activity counters.
func (c *Cache) Stats() CacheStats {
	s := c.c.Stats()
	return CacheStats{
		Hits: s.Hits, Misses: s.Misses, Stores: s.Stores,
		BadEntries: s.BadEntries, MemEntries: s.MemEntries,
		DiskEntries: s.DiskEntries, DiskPromotes: s.DiskPromotes,
		Merges: s.Merges, MergeSkips: s.MergeSkips, MergeRejects: s.MergeRejects,
	}
}

// TemplateLibrary is the identity-template rewrite library: a store of
// NPN-canonical local functions with their cheapest known RQFP
// implementations, matched search-free against netlist windows by the
// template pass. Safe for concurrent use; share one library between all
// jobs of a server.
type TemplateLibrary struct {
	l *template.Library
}

// StarterTemplates returns the shipped precomputed starter library —
// every ≤4-input function class mined from exhaustive small
// identity-circuit enumeration, re-verified by simulation on load.
func StarterTemplates() (*TemplateLibrary, error) {
	l, err := template.Starter()
	if err != nil {
		return nil, err
	}
	return &TemplateLibrary{l: l}, nil
}

// NewTemplateLibrary returns an empty in-memory library (populated by
// learning, Merge, or LoadTemplates).
func NewTemplateLibrary() *TemplateLibrary {
	return &TemplateLibrary{l: template.New()}
}

// OpenTemplateLibrary loads a library from a JSONL file written by
// SaveFile (or by rqfp-exact -enumerate-identities). Every entry is
// re-simulated and re-verified before adoption; the count of rejected
// entries is returned alongside.
func OpenTemplateLibrary(path string) (*TemplateLibrary, int, error) {
	l := template.New()
	_, rejected, err := l.LoadFile(path)
	if err != nil {
		return nil, rejected, err
	}
	return &TemplateLibrary{l: l}, rejected, nil
}

// SaveFile atomically writes the library as sorted JSONL.
func (t *TemplateLibrary) SaveFile(path string) error { return t.l.SaveFile(path) }

// Len returns the number of stored template classes.
func (t *TemplateLibrary) Len() int { return t.l.Len() }

// TemplateEntry is one replicable template record: the cheapest known
// implementation of an NPN class representative under its class key.
// Entries are the unit of template replication between fleet nodes.
type TemplateEntry struct {
	Key     string `json:"key"`
	NumPI   int    `json:"num_pi"`
	NumPO   int    `json:"num_po"`
	Gates   int    `json:"gates"`
	Netlist string `json:"netlist"`
}

// SetReplicator registers fn to receive every template a local synthesis
// learns into the library (after store-side verification). Entries
// adopted via Merge do not re-trigger fn, so replication cannot loop.
// Call before sharing the library between jobs.
func (t *TemplateLibrary) SetReplicator(fn func(TemplateEntry)) {
	if fn == nil {
		t.l.SetReplicator(nil)
		return
	}
	t.l.SetReplicator(func(e template.Entry) {
		fn(TemplateEntry{Key: e.Key, NumPI: e.NumPI, NumPO: e.NumPO, Gates: e.Gates, Netlist: e.Netlist})
	})
}

// Merge adopts a template replicated from another node. The netlist is
// re-parsed, re-simulated, and re-canonicalized locally before it is
// stored — a corrupt replication payload can never poison this library.
// Entries that do not improve on the local implementation are skipped.
func (t *TemplateLibrary) Merge(e TemplateEntry) error {
	return t.l.Merge(template.Entry{Key: e.Key, NumPI: e.NumPI, NumPO: e.NumPO, Gates: e.Gates, Netlist: e.Netlist})
}

// Entries snapshots every template the library holds, sorted by key, for
// seeding a replication peer.
func (t *TemplateLibrary) Entries() []TemplateEntry {
	dump := t.l.Dump()
	out := make([]TemplateEntry, len(dump))
	for i, e := range dump {
		out[i] = TemplateEntry{Key: e.Key, NumPI: e.NumPI, NumPO: e.NumPO, Gates: e.Gates, Netlist: e.Netlist}
	}
	return out
}

// TemplateStats is a point-in-time view of template-library activity.
type TemplateStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Learned int64 `json:"learned"`
	Rejects int64 `json:"rejects"`
	// Replication counters: remote templates adopted, skipped (no
	// improvement on the local implementation), and refused by store-side
	// re-verification.
	Merges       int64 `json:"merges"`
	MergeSkips   int64 `json:"merge_skips"`
	MergeRejects int64 `json:"merge_rejects"`
}

// templatesOf unwraps the optional public handle for the flow layer.
func templatesOf(t *TemplateLibrary) *template.Library {
	if t == nil {
		return nil
	}
	return t.l
}

// Stats snapshots the library activity counters.
func (t *TemplateLibrary) Stats() TemplateStats {
	s := t.l.Stats()
	return TemplateStats{
		Entries: s.Entries, Hits: s.Hits, Misses: s.Misses,
		Learned: s.Learned, Rejects: s.Rejects,
		Merges: s.Merges, MergeSkips: s.MergeSkips, MergeRejects: s.MergeRejects,
	}
}

// Stats are the paper's cost metrics for an RQFP circuit.
type Stats struct {
	Inputs  int // n_pi
	Outputs int // n_po
	Gates   int // n_r — RQFP logic gates
	Buffers int // n_b — path-balancing RQFP buffers
	JJs     int // Josephson junctions: 24·n_r + 4·n_b
	Depth   int // n_d — logic depth in clocked stages
	Garbage int // n_g — garbage outputs
}

func fromInternalStats(s rqfp.Stats) Stats {
	return Stats{
		Inputs: s.PIs, Outputs: s.POs, Gates: s.Gates, Buffers: s.Buffers,
		JJs: s.JJs, Depth: s.Depth, Garbage: s.Garbage,
	}
}

// String renders the stats in the paper's column order.
func (s Stats) String() string {
	return fmt.Sprintf("n_r=%d n_b=%d JJs=%d n_d=%d n_g=%d", s.Gates, s.Buffers, s.JJs, s.Depth, s.Garbage)
}

// Result is a synthesized RQFP circuit together with its baseline.
type Result struct {
	circuit *Circuit
	initial *Circuit

	// Generations and Evaluations report the evolutionary effort spent.
	Generations int
	Evaluations int64
	// Runtime is the end-to-end pipeline time.
	Runtime time.Duration
	// FromCache marks results served from Options.Cache: the stored netlist
	// of the function's NPN class, formally re-verified against this
	// design's specification, with no search run. CacheKey is the class
	// signature (also set on misses that stored a fresh result).
	FromCache bool
	CacheKey  string
	// Telemetry is the run's observability snapshot: per-stage times and
	// the evolution / equivalence-checking counters.
	Telemetry Telemetry
	// Flight is the retained flight-recorder window in chronological order
	// (empty unless Options.FlightEvery was set; see FlightSample).
	Flight []FlightSample
}

// Circuit returns the final optimized RQFP circuit.
func (r *Result) Circuit() *Circuit { return r.circuit }

// Initial returns the initialization-baseline circuit (after netlist
// conversion and splitter insertion, before CGP).
func (r *Result) Initial() *Circuit { return r.initial }

// Stats is shorthand for r.Circuit().Stats().
func (r *Result) Stats() Stats { return r.circuit.Stats() }

// Synthesize runs the full RCGP pipeline on the design.
func (d *Design) Synthesize(opt Options) (*Result, error) {
	return d.SynthesizeContext(context.Background(), opt)
}

// SynthesizeContext is Synthesize under an external cancellation context,
// threaded through every stage down to the SAT solver. Cancelling ctx
// after the evolution has started returns the validated best-so-far
// circuit (Telemetry.StopReason records why the search stopped);
// cancelling before the pipeline is built returns the context error.
func (d *Design) SynthesizeContext(ctx context.Context, opt Options) (*Result, error) {
	var cacheTables []tt.TT
	if opt.Cache != nil && d.aig.NumPIs() >= 1 && d.aig.NumPIs() <= cache.MaxInputs &&
		d.aig.NumPOs() >= 1 && d.aig.NumPOs() <= cache.MaxOutputs {
		start := time.Now()
		cacheTables = d.aig.TruthTables()
		if net, key, ok := opt.Cache.c.Lookup(cacheTables); ok {
			c := &Circuit{net: net}
			// The cache trades recall for speed, never correctness: a hit
			// is served only after the SAT/simulation oracle proves it
			// against this design. A refuted entry falls through to a
			// normal search (and overwrites the bad entry on completion).
			if ok, err := d.Verify(c); err == nil && ok {
				return &Result{
					circuit:   c,
					initial:   c,
					Runtime:   time.Since(start),
					FromCache: true,
					CacheKey:  key,
					Telemetry: Telemetry{StopReason: "cache"},
				}, nil
			}
		}
	}
	fopt := flow.Options{
		SkipCGP:      opt.InitializationOnly,
		WindowRounds: opt.WindowRounds,
		Resub:        opt.Resubstitution,
		Optimizer:    opt.Optimizer,
		Templates:    templatesOf(opt.Templates),
		CGP: core.Options{
			Lambda:       opt.Lambda,
			Generations:  opt.Generations,
			MutationRate: opt.MutationRate,
			Seed:         opt.Seed,
			Workers:      opt.Workers,
			Islands:      opt.Islands,
			TimeBudget:   opt.TimeBudget,
		},
	}
	if opt.FlightEvery > 0 {
		fopt.CGP.FlightEvery = opt.FlightEvery
		fopt.CGP.FlightCap = opt.FlightCap
		if sink := opt.FlightSink; sink != nil {
			fopt.CGP.FlightSink = func(s core.FlightSample) { sink(flightFromCore(s)) }
		}
	}
	if opt.CheckpointEvery > 0 && opt.CheckpointSink != nil {
		fopt.CGP.CheckpointEvery = opt.CheckpointEvery
		sink := opt.CheckpointSink
		fopt.CGP.CheckpointFn = func(cp core.Checkpoint) { sink(checkpointFromCore(cp)) }
	}
	if opt.Resume != nil {
		fopt.CGP.Resume = opt.Resume.toCore()
	}
	if opt.Progress != nil {
		fopt.CGP.Progress = func(gen int, best core.Fitness) {
			opt.Progress(gen, best.Gates, best.Garbage)
		}
	}
	var tracer *obs.Tracer
	if opt.Trace != nil {
		tracer = obs.NewTracer(opt.Trace)
		fopt.Trace = tracer
	}
	res, err := flow.RunContext(ctx, d.aig, fopt)
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		if terr := tracer.Err(); terr != nil {
			return nil, fmt.Errorf("rcgp: trace write failed: %w", terr)
		}
	}
	out := &Result{
		circuit:   &Circuit{net: res.Final},
		initial:   &Circuit{net: res.Initial},
		Runtime:   res.Runtime,
		Telemetry: telemetryFromFlow(res),
	}
	if res.CGP != nil {
		out.Generations = res.CGP.Generations
		out.Evaluations = res.CGP.Evaluations
		out.Flight = flightFromCoreSlice(res.CGP.Flight)
	}
	if opt.Cache != nil && cacheTables != nil {
		// Best-effort: a failed store (e.g. disk full) must not fail the
		// synthesis that produced a perfectly good circuit.
		if key, err := opt.Cache.c.Store(cacheTables, res.Final); err == nil {
			out.CacheKey = key
		}
	}
	return out, nil
}

// Circuit is an RQFP logic circuit.
type Circuit struct {
	net *rqfp.Netlist
}

// ReadCircuit parses the textual netlist format produced by WriteText.
func ReadCircuit(r io.Reader) (*Circuit, error) {
	n, err := rqfp.ReadText(r)
	if err != nil {
		return nil, err
	}
	return &Circuit{net: n}, nil
}

// Stats computes the paper's cost metrics (including the buffers that path
// balancing will insert).
func (c *Circuit) Stats() Stats { return fromInternalStats(c.net.ComputeStats()) }

// NumGates returns the number of active RQFP gates.
func (c *Circuit) NumGates() int { return c.net.NumActive() }

// Evaluate runs the circuit on one input assignment (bit i = input i) and
// returns the output bits.
func (c *Circuit) Evaluate(assignment uint) []bool { return c.net.EvalBool(assignment) }

// Chromosome renders the circuit in the paper's CGP string notation.
func (c *Circuit) Chromosome() string { return c.net.String() }

// WriteText serializes the circuit netlist.
func (c *Circuit) WriteText(w io.Writer) error { return c.net.WriteText(w) }

// WriteVerilog exports the circuit as a structural Verilog module (each
// configured majority as a continuous assignment).
func (c *Circuit) WriteVerilog(w io.Writer, module string) error {
	return c.net.WriteVerilog(w, module)
}

// Validate checks the RQFP structural invariants (topological order and
// the single-fanout rule).
func (c *Circuit) Validate() error { return c.net.Validate() }

// Equivalent formally checks functional equivalence of two circuits using
// the SAT-based miter.
func (c *Circuit) Equivalent(other *Circuit) (bool, error) {
	return cec.NetlistsEquivalent(c.net, other.net)
}

// AQFPStats describes the cell-level AQFP expansion of a circuit: an RQFP
// gate is three splitters plus three majorities (paper Fig. 1a); an RQFP
// buffer is two cascaded AQFP buffers; phases count AQFP clock stages.
type AQFPStats struct {
	Buffers    int
	Splitters  int
	Majorities int
	JJs        int
	Phases     int
}

// ExpandAQFP lowers the circuit to AQFP cells (with path-balancing buffers
// inserted), validates the clock-phase discipline, and returns the cell
// inventory. The JJ count always equals the netlist-level cost model.
func (c *Circuit) ExpandAQFP() (AQFPStats, error) {
	balanced := c.net.InsertBuffers()
	if err := balanced.Validate(); err != nil {
		return AQFPStats{}, err
	}
	cells, err := aqfp.Expand(balanced)
	if err != nil {
		return AQFPStats{}, err
	}
	if err := cells.Validate(); err != nil {
		return AQFPStats{}, err
	}
	st := cells.Stats()
	return AQFPStats{
		Buffers:    st.Buffers,
		Splitters:  st.Splitters,
		Majorities: st.Majs,
		JJs:        st.JJs,
		Phases:     st.Phases,
	}, nil
}

// ExactOptions tunes the exact-synthesis baseline.
type ExactOptions struct {
	// MaxGates caps the gate-count search (default 8).
	MaxGates int
	// TimeBudget bounds the search; expiry returns ErrExactTimeout.
	TimeBudget time.Duration
	// ConflictLimit bounds each SAT call.
	ConflictLimit int64
}

// ErrExactTimeout is returned when exact synthesis exceeds its budget —
// the expected outcome beyond tiny circuits, as the paper demonstrates.
var ErrExactTimeout = exact.ErrTimeout

// ErrExactUnsat is returned when no circuit exists within MaxGates.
var ErrExactUnsat = exact.ErrUnsat

// SynthesizeExact runs the SAT-based exact synthesis baseline on the
// design (practical only for very small input counts).
func (d *Design) SynthesizeExact(opt ExactOptions) (*Circuit, error) {
	if d.aig.NumPIs() > 8 {
		return nil, fmt.Errorf("rcgp: exact synthesis limited to 8 inputs (got %d)", d.aig.NumPIs())
	}
	res, err := exact.Synthesize(d.aig.TruthTables(), exact.Options{
		MaxGates:      opt.MaxGates,
		TimeBudget:    opt.TimeBudget,
		ConflictLimit: opt.ConflictLimit,
	})
	if err != nil {
		return nil, err
	}
	return &Circuit{net: res.Netlist}, nil
}

// Verify formally checks that the circuit implements the design.
func (d *Design) Verify(c *Circuit) (bool, error) {
	spec := cec.NewSpecFromAIG(d.aig, 0, 0)
	v := spec.Check(c.net, nil, nil)
	return v.Proved, nil
}
