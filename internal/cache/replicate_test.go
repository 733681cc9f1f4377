package cache

import (
	"strings"
	"testing"

	"github.com/reversible-eda/rcgp/internal/tt"
)

// A store on one cache, replayed through the replicator hook and merged
// into a second cache, must serve the same class there — including NPN
// variants — with no search.
func TestReplicateStoreMergeRoundTrip(t *testing.T) {
	a := NewMemory(0)
	var published []Entry
	a.SetReplicator(func(e Entry) { published = append(published, e) })

	net := maj3Netlist()
	tables := net.TruthTables()
	key, err := a.Store(tables, net)
	if err != nil {
		t.Fatal(err)
	}
	if len(published) != 1 || published[0].Key != key {
		t.Fatalf("replicator saw %+v, want one entry under %q", published, key)
	}

	b := NewMemory(0)
	if err := b.Merge(published[0]); err != nil {
		t.Fatal(err)
	}
	got, gotKey, ok := b.Lookup(tables)
	if !ok || gotKey != key {
		t.Fatalf("merged cache missed (ok=%v key=%q want %q)", ok, gotKey, key)
	}
	if err := verifyExhaustive(got, tables); err != nil {
		t.Fatalf("merged netlist wrong: %v", err)
	}

	// An NPN variant of the merged class must hit too.
	base := tables[0]
	variant := tt.FromFunc(3, func(x uint) bool { return !base.Get(x) })
	if _, _, ok := b.Lookup([]tt.TT{variant}); !ok {
		t.Fatal("NPN variant missed the merged entry")
	}
	if s := b.Stats(); s.Merges != 1 || s.MergeRejects != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// Merging must not re-trigger the replicator (that would loop the fan-out),
// and re-merging a present key is a skip, not a rewrite.
func TestMergeDoesNotRepublishOrOverwrite(t *testing.T) {
	a := NewMemory(0)
	net := maj3Netlist()
	tables := net.TruthTables()
	if _, err := a.Store(tables, net); err != nil {
		t.Fatal(err)
	}
	dump := a.Dump()
	if len(dump) != 1 {
		t.Fatalf("dump has %d entries, want 1", len(dump))
	}

	b := NewMemory(0)
	republished := 0
	b.SetReplicator(func(Entry) { republished++ })
	if err := b.Merge(dump[0]); err != nil {
		t.Fatal(err)
	}
	if republished != 0 {
		t.Fatalf("merge republished %d entries", republished)
	}
	if err := b.Merge(dump[0]); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.Merges != 1 || s.MergeSkips != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// A corrupted replication payload — wrong key, garbled netlist, or a
// netlist/shape mismatch — must be rejected and never poison the store.
func TestMergeRejectsCorruptEntries(t *testing.T) {
	a := NewMemory(0)
	net := maj3Netlist()
	if _, err := a.Store(net.TruthTables(), net); err != nil {
		t.Fatal(err)
	}
	good := a.Dump()[0]

	for name, e := range map[string]Entry{
		"garbled netlist": {Key: good.Key, NumPI: good.NumPI, NumPO: good.NumPO, Netlist: "not a netlist"},
		"wrong key":       {Key: "npn:3:1:ff", NumPI: good.NumPI, NumPO: good.NumPO, Netlist: good.Netlist},
		"wrong shape":     {Key: good.Key, NumPI: good.NumPI + 1, NumPO: good.NumPO, Netlist: good.Netlist},
	} {
		b := NewMemory(0)
		if err := b.Merge(e); err == nil {
			t.Errorf("%s: merge accepted", name)
		}
		if s := b.Stats(); s.MergeRejects != 1 {
			t.Errorf("%s: stats %+v", name, s)
		}
	}
}

// Dump must cover both tiers: entries only on disk (evicted from the LRU)
// and entries only in memory.
func TestDumpCoversDiskAndMemory(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1) // memory tier holds a single entry
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	maj := maj3Netlist()
	and := and2Netlist()
	if _, err := c.Store(maj.TruthTables(), maj); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(and.TruthTables(), and); err != nil { // evicts maj from memory
		t.Fatal(err)
	}
	dump := c.Dump()
	if len(dump) != 2 {
		t.Fatalf("dump has %d entries, want 2", len(dump))
	}
	if dump[0].Key >= dump[1].Key {
		t.Fatalf("dump not sorted: %q, %q", dump[0].Key, dump[1].Key)
	}
	for _, e := range dump {
		if e.Netlist == "" || !strings.Contains(e.Key, ":") {
			t.Fatalf("malformed dump entry %+v", e)
		}
	}
}
