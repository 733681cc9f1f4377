package cache

import (
	"fmt"
	"strings"

	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// This file is the replication side of the cache: the hooks a fleet runner
// uses to publish locally synthesized canonical entries to its coordinator
// and to merge entries other shards produced. Merged entries go through the
// exact same store-side verification as local results — a replication peer
// is never trusted more than the local search engine.

// SetReplicator registers fn to receive every entry a local Store persists
// (after verification, outside the cache lock). Merged remote entries do
// not re-trigger fn, so replication fan-out cannot loop. Call before
// concurrent use; a nil fn disables publication.
func (c *Cache) SetReplicator(fn func(Entry)) {
	c.mu.Lock()
	c.replicate = fn
	c.mu.Unlock()
}

// Merge adopts an entry produced by another cache instance. The netlist is
// re-simulated locally to recover its truth tables, then stored through the
// normal verifying path (re-canonicalization plus exhaustive or SAT
// verification), so a corrupt or malicious replication payload can cost CPU
// but never poison the local store. The recomputed signature must equal the
// advertised key — a mismatch means the sender's canonicalization disagrees
// with ours and the entry is rejected. An already-present key is left
// untouched (local entries win; replication only fills gaps).
func (c *Cache) Merge(e Entry) error {
	c.mu.Lock()
	_, inMem := c.mem.get(e.Key)
	inDisk := false
	if !inMem && c.disk != nil {
		_, inDisk, _ = c.disk.get(e.Key)
	}
	c.mu.Unlock()
	if inMem || inDisk {
		c.bump(func(s *Stats) { s.MergeSkips++ })
		return nil
	}
	net, err := rqfp.ReadText(strings.NewReader(e.Netlist))
	if err != nil {
		c.bump(func(s *Stats) { s.MergeRejects++ })
		return fmt.Errorf("cache: merge: unreadable netlist: %w", err)
	}
	if net.NumPI != e.NumPI || len(net.POs) != e.NumPO {
		c.bump(func(s *Stats) { s.MergeRejects++ })
		return fmt.Errorf("cache: merge: shape mismatch: %d/%d inputs, %d/%d outputs",
			net.NumPI, e.NumPI, len(net.POs), e.NumPO)
	}
	if net.NumPI < 1 || net.NumPI > MaxInputs || len(net.POs) < 1 || len(net.POs) > MaxOutputs {
		c.bump(func(s *Stats) { s.MergeRejects++ })
		return ErrUncacheable
	}
	tables := net.TruthTables()
	key, err := c.store(tables, net, false)
	if err != nil {
		c.bump(func(s *Stats) { s.MergeRejects++ })
		return fmt.Errorf("cache: merge: %w", err)
	}
	if key != e.Key {
		// The entry is stored under the locally computed key (it verified
		// against its own function), but the sender's key disagrees — warn
		// the caller so a canonicalization skew across the fleet surfaces.
		c.bump(func(s *Stats) { s.MergeRejects++ })
		return fmt.Errorf("cache: merge: key mismatch: advertised %q, computed %q", e.Key, key)
	}
	c.bump(func(s *Stats) { s.Merges++ })
	return nil
}

// Dump snapshots every entry the cache knows (memory and disk tiers, disk
// authoritative for duplicates), for seeding a replication peer. Entries
// come back sorted by key so the dump is deterministic.
func (c *Cache) Dump() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[string]Entry)
	if c.disk != nil {
		for key := range c.disk.index {
			if e, ok, err := c.disk.get(key); err == nil && ok {
				seen[key] = e
			}
		}
	}
	for _, el := range c.mem.items {
		it := el.Value.(*lruItem)
		if _, ok := seen[it.key]; !ok {
			seen[it.key] = it.entry
		}
	}
	out := make([]Entry, 0, len(seen))
	for _, e := range seen {
		out = append(out, e)
	}
	sortEntries(out)
	return out
}

func sortEntries(es []Entry) {
	for i := 1; i < len(es); i++ { // insertion sort: dumps are small
		for k := i; k > 0 && es[k].Key < es[k-1].Key; k-- {
			es[k], es[k-1] = es[k-1], es[k]
		}
	}
}
