package cache

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// maj3Netlist is a one-gate netlist computing MAJ(a, b, c).
func maj3Netlist() *rqfp.Netlist {
	n := rqfp.NewNetlist(3)
	g := n.AddGate(rqfp.Gate{In: [3]rqfp.Signal{n.PIPort(0), n.PIPort(1), n.PIPort(2)}})
	n.POs = []rqfp.Signal{n.Port(g, 0)}
	return n
}

// and2Netlist computes a AND b = M(a, b, 0).
func and2Netlist() *rqfp.Netlist {
	n := rqfp.NewNetlist(2)
	g := n.AddGate(rqfp.Gate{
		In:  [3]rqfp.Signal{n.PIPort(0), n.PIPort(1), rqfp.ConstPort},
		Cfg: rqfp.Config(0).InvertInputAll(2),
	})
	n.POs = []rqfp.Signal{n.Port(g, 0)}
	return n
}

// buf1Netlist passes its single input through a splitter.
func buf1Netlist() *rqfp.Netlist {
	n := rqfp.NewNetlist(1)
	g := n.AddGate(rqfp.Gate{
		In:  [3]rqfp.Signal{rqfp.ConstPort, n.PIPort(0), rqfp.ConstPort},
		Cfg: rqfp.ConfigSplitter,
	})
	n.POs = []rqfp.Signal{n.Port(g, 0)}
	return n
}

func TestCacheStoreLookupRoundTrip(t *testing.T) {
	c := NewMemory(0)
	net := maj3Netlist()
	tables := net.TruthTables()

	if _, _, ok := c.Lookup(tables); ok {
		t.Fatal("hit on an empty cache")
	}
	key, err := c.Store(tables, net)
	if err != nil {
		t.Fatal(err)
	}
	got, gotKey, ok := c.Lookup(tables)
	if !ok {
		t.Fatal("miss after store")
	}
	if gotKey != key {
		t.Fatalf("lookup key %q != store key %q", gotKey, key)
	}
	if err := verifyExhaustive(got, tables); err != nil {
		t.Fatalf("served netlist wrong: %v", err)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 || s.MemEntries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// An NPN-equivalent specification must hit the entry stored for another
// member of the class, and the served netlist must implement the *variant*
// exactly — the transform un-applied, as ISSUE.md puts it.
func TestCacheLookupNPNVariant(t *testing.T) {
	c := NewMemory(0)
	net := maj3Netlist()
	if _, err := c.Store(net.TruthTables(), net); err != nil {
		t.Fatal(err)
	}

	// MAJ with inputs permuted (c, a, b), input b complemented, output
	// complemented — same NPN class, different function.
	base := net.TruthTables()[0]
	variant := tt.FromFunc(3, func(x uint) bool {
		a, b, cc := x>>1&1, (x>>2&1)^1, x&1
		return !base.Get(a | b<<1 | cc<<2)
	})
	got, _, ok := c.Lookup([]tt.TT{variant})
	if !ok {
		t.Fatal("NPN-equivalent variant missed the cache")
	}
	if err := verifyExhaustive(got, []tt.TT{variant}); err != nil {
		t.Fatalf("variant netlist wrong: %v", err)
	}

	// A function outside the class must miss.
	xor3 := tt.FromFunc(3, func(x uint) bool {
		return (x&1 ^ x>>1&1 ^ x>>2&1) == 1
	})
	if _, _, ok := c.Lookup([]tt.TT{xor3}); ok {
		t.Fatal("XOR3 hit a cache holding only MAJ3")
	}
}

func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	net := and2Netlist()
	tables := net.TruthTables()

	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(tables, net); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory replays the log: warm state
	// survives the restart.
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if s := c2.Stats(); s.DiskEntries != 1 || s.MemEntries != 0 {
		t.Fatalf("after reopen: %+v", s)
	}
	got, _, ok := c2.Lookup(tables)
	if !ok {
		t.Fatal("miss after reopen")
	}
	if err := verifyExhaustive(got, tables); err != nil {
		t.Fatalf("persisted netlist wrong: %v", err)
	}
	if s := c2.Stats(); s.DiskPromotes != 1 || s.MemEntries != 1 {
		t.Fatalf("disk hit not promoted: %+v", s)
	}
}

func TestCacheTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	net := maj3Netlist()
	tables := net.TruthTables()

	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(tables, net); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a trailing fragment with no newline.
	path := filepath.Join(dir, logName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"npn:3:1:torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, ok := c2.Lookup(tables); !ok {
		t.Fatal("good prefix lost after torn-tail recovery")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("torn tail not truncated: size %d, want %d (err %v)", fi.Size(), len(good), err)
	}

	// New appends after the recovery land cleanly.
	net2 := and2Netlist()
	if _, err := c2.Store(net2.TruthTables(), net2); err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.DiskEntries != 2 {
		t.Fatalf("post-recovery store missing: %+v", s)
	}
}

func TestCacheCorruptLineKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	net := maj3Netlist()
	tables := net.TruthTables()

	c, _ := Open(dir, 0)
	if _, err := c.Store(tables, net); err != nil {
		t.Fatal(err)
	}
	c.Close()

	path := filepath.Join(dir, logName)
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString("not json at all\n")
	f.Close()

	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, ok := c2.Lookup(tables); !ok {
		t.Fatal("good prefix lost after corrupt-line recovery")
	}
	if s := c2.Stats(); s.DiskEntries != 1 {
		t.Fatalf("stats after recovery: %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewMemory(2)
	nets := []*rqfp.Netlist{maj3Netlist(), and2Netlist(), buf1Netlist()}
	for _, n := range nets {
		if _, err := c.Store(n.TruthTables(), n); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2, three inserts: the oldest (maj3) is evicted; with no disk
	// tier behind the LRU it is gone for good.
	if _, _, ok := c.Lookup(nets[0].TruthTables()); ok {
		t.Fatal("evicted entry still served")
	}
	for _, n := range nets[1:] {
		if _, _, ok := c.Lookup(n.TruthTables()); !ok {
			t.Fatalf("recent entry evicted (NumPI=%d)", n.NumPI)
		}
	}
	if s := c.Stats(); s.MemEntries != 2 {
		t.Fatalf("stats %+v", s)
	}
}

// Stored entries hold the canonical representative, so every member of a
// class shares one slot: storing two NPN-equivalent functions must not
// grow the cache.
func TestCacheOneSlotPerClass(t *testing.T) {
	c := NewMemory(0)
	net := and2Netlist()
	if _, err := c.Store(net.TruthTables(), net); err != nil {
		t.Fatal(err)
	}
	// b AND NOT a — same class as AND.
	other := rqfp.NewNetlist(2)
	g := other.AddGate(rqfp.Gate{
		In:  [3]rqfp.Signal{other.PIPort(0), other.PIPort(1), rqfp.ConstPort},
		Cfg: rqfp.Config(0).InvertInputAll(2).InvertInputAll(0),
	})
	other.POs = []rqfp.Signal{other.Port(g, 0)}
	if _, err := c.Store(other.TruthTables(), other); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.MemEntries != 1 || s.Stores != 2 {
		t.Fatalf("NPN-equivalent stores did not share a slot: %+v", s)
	}
}

func TestCacheUncacheableLookup(t *testing.T) {
	c := NewMemory(0)
	wide := []tt.TT{tt.New(MaxInputs + 1)}
	if _, _, ok := c.Lookup(wide); ok {
		t.Fatal("uncacheable design hit")
	}
	if _, err := c.Store(wide, maj3Netlist()); err == nil {
		t.Fatal("uncacheable design stored")
	}
	// Uncacheable lookups are not misses — they never could have hit.
	if s := c.Stats(); s.Misses != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir, 0)
	net := maj3Netlist()
	tables := net.TruthTables()
	for i := 0; i < 3; i++ {
		if _, err := c.Store(tables, net); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if s := c2.Stats(); s.DiskEntries != 1 {
		t.Fatalf("duplicate stores inflated the index: %+v", s)
	}
	if _, _, ok := c2.Lookup(tables); !ok {
		t.Fatal("miss after duplicate stores")
	}
}
