package cache

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// Entry is one stored synthesis result: the netlist of the *canonical*
// class representative in the rqfp textual format. Storing the canonical
// form (rather than the submitter's polarity) means a single entry serves
// every member of the NPN class — each request un-applies its own
// transform on the way out.
type Entry struct {
	Key     string `json:"key"`
	NumPI   int    `json:"num_pi"`
	NumPO   int    `json:"num_po"`
	Netlist string `json:"netlist"`
}

// Stats is a point-in-time view of cache activity.
type Stats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Stores       int64 `json:"stores"`
	BadEntries   int64 `json:"bad_entries"` // disk entries that failed to decode or transform
	MemEntries   int   `json:"mem_entries"`
	DiskEntries  int   `json:"disk_entries"`
	DiskPromotes int64 `json:"disk_promotes"` // disk hits promoted into the memory tier
	Merges       int64 `json:"merges"`        // remote entries adopted after re-verification
	MergeSkips   int64 `json:"merge_skips"`   // remote entries skipped (key already present)
	MergeRejects int64 `json:"merge_rejects"` // remote entries refused by re-verification
}

// Cache is the two-tier NPN-canonical result cache: an in-memory LRU in
// front of an optional append-only disk log. Safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	mem       *lruTier
	disk      *diskLog // nil for memory-only caches
	stats     Stats
	replicate func(Entry) // publication hook for locally stored entries
}

// VerifyExhaustiveMaxPIs is the input count up to which Store verifies a
// canonical netlist by full 2^n enumeration; wider keys are proven by the
// SAT miter instead (symbolically — no exponential sweep).
const VerifyExhaustiveMaxPIs = 10

// DefaultMemEntries is the memory-tier capacity when the caller passes 0.
const DefaultMemEntries = 1024

// Open returns a cache persisted under dir (created if missing), replaying
// any existing log so restarts keep warm state. memEntries bounds the
// in-memory tier (0 = DefaultMemEntries).
func Open(dir string, memEntries int) (*Cache, error) {
	if memEntries <= 0 {
		memEntries = DefaultMemEntries
	}
	c := &Cache{mem: newLRU(memEntries)}
	if dir != "" {
		d, err := openDiskLog(dir)
		if err != nil {
			return nil, err
		}
		c.disk = d
	}
	return c, nil
}

// NewMemory returns a memory-only cache.
func NewMemory(memEntries int) *Cache {
	c, _ := Open("", memEntries)
	return c
}

// Close flushes and closes the disk tier.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disk == nil {
		return nil
	}
	err := c.disk.close()
	c.disk = nil
	return err
}

// Stats snapshots the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.MemEntries = c.mem.len()
	if c.disk != nil {
		s.DiskEntries = c.disk.len()
	}
	return s
}

// Lookup returns a netlist implementing exactly the given specification
// tables if the function's class is cached: the stored canonical netlist
// with the request's NPN transform un-applied. The caller must re-verify
// the returned netlist against its specification oracle before serving it
// — the cache guarantees only best-effort recall, never correctness.
func (c *Cache) Lookup(tables []tt.TT) (*rqfp.Netlist, string, bool) {
	key, tr, err := Signature(tables)
	if err != nil {
		return nil, "", false
	}
	entry, ok := c.get(key)
	if !ok {
		c.bump(func(s *Stats) { s.Misses++ })
		return nil, key, false
	}
	canon, err := rqfp.ReadText(strings.NewReader(entry.Netlist))
	if err != nil {
		c.bump(func(s *Stats) { s.BadEntries++; s.Misses++ })
		return nil, key, false
	}
	net, err := tr.OriginalNetlist(canon)
	if err != nil {
		c.bump(func(s *Stats) { s.BadEntries++; s.Misses++ })
		return nil, key, false
	}
	c.bump(func(s *Stats) { s.Hits++ })
	return net, key, true
}

// Store records a synthesized netlist for the given specification tables,
// converting it to the canonical class representative first. The netlist
// that will actually be persisted is always verified against the canonical
// tables — a malfunctioning transform (or a caller storing a wrong result)
// must never poison the log. Keys up to VerifyExhaustiveMaxPIs inputs are
// checked by exhaustive simulation; wider keys by the SAT miter
// (cec.Prove), which proves symbolically instead of sweeping 2^n
// assignments.
func (c *Cache) Store(tables []tt.TT, net *rqfp.Netlist) (string, error) {
	return c.store(tables, net, true)
}

// store is Store with the replication hook made explicit: local stores
// publish to the replicator, merged remote entries (Merge) do not — the
// asymmetry is what keeps replication fan-out from looping.
func (c *Cache) store(tables []tt.TT, net *rqfp.Netlist, publish bool) (string, error) {
	key, tr, err := Signature(tables)
	if err != nil {
		return "", err
	}
	canonNet, err := tr.CanonicalNetlist(net)
	if err != nil {
		return "", err
	}
	canonTables := tr.Apply(tables)
	if canonTables[0].N <= VerifyExhaustiveMaxPIs {
		if err := verifyExhaustive(canonNet, canonTables); err != nil {
			return "", fmt.Errorf("cache: canonical netlist failed simulation: %w", err)
		}
	} else if err := verifyProof(canonNet, canonTables); err != nil {
		return "", fmt.Errorf("cache: canonical netlist failed verification: %w", err)
	}
	var sb strings.Builder
	if err := canonNet.WriteText(&sb); err != nil {
		return "", err
	}
	entry := Entry{Key: key, NumPI: canonNet.NumPI, NumPO: len(canonNet.POs), Netlist: sb.String()}

	c.mu.Lock()
	c.stats.Stores++
	c.mem.put(key, entry)
	var derr error
	if c.disk != nil {
		derr = c.disk.put(entry)
	}
	fn := c.replicate
	c.mu.Unlock()
	if derr != nil {
		return key, derr
	}
	if publish && fn != nil {
		fn(entry)
	}
	return key, nil
}

// get consults the memory tier, then the disk tier (promoting a disk hit).
func (c *Cache) get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem.get(key); ok {
		return e, true
	}
	if c.disk == nil {
		return Entry{}, false
	}
	e, ok, err := c.disk.get(key)
	if err != nil || !ok {
		if err != nil {
			c.stats.BadEntries++
		}
		return Entry{}, false
	}
	c.mem.put(key, e)
	c.stats.DiskPromotes++
	return e, true
}

func (c *Cache) bump(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// verifyProof proves the canonical netlist against an AIG of the
// canonical tables with the SAT miter — the symbolic replacement for
// verifyExhaustive above VerifyExhaustiveMaxPIs inputs.
func verifyProof(net *rqfp.Netlist, tables []tt.TT) error {
	spec := aig.FromTruthTables(tables)
	if spec.NumPIs() != net.NumPI || spec.NumPOs() != len(net.POs) {
		return fmt.Errorf("shape mismatch: %d/%d inputs, %d/%d outputs",
			net.NumPI, spec.NumPIs(), len(net.POs), spec.NumPOs())
	}
	eq, _, _, err := cec.Prove(context.Background(), spec, net)
	switch {
	case err != nil:
		return fmt.Errorf("SAT miter reached no verdict: %w", err)
	case !eq:
		return fmt.Errorf("SAT miter refuted the canonical netlist")
	}
	return nil
}

// verifyExhaustive simulates the netlist on every assignment (callers
// gate this to small input counts).
func verifyExhaustive(net *rqfp.Netlist, tables []tt.TT) error {
	if len(tables) != len(net.POs) {
		return fmt.Errorf("output count %d != %d", len(net.POs), len(tables))
	}
	n := tables[0].N
	if net.NumPI != n {
		return fmt.Errorf("input count %d != %d", net.NumPI, n)
	}
	got := net.TruthTables()
	for k, f := range tables {
		for x := uint(0); x < 1<<uint(n); x++ {
			if got[k].Get(x) != f.Get(x) {
				return fmt.Errorf("mismatch at assignment %d output %d", x, k)
			}
		}
	}
	return nil
}
