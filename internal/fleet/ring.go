package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is the consistent-hash map from shard keys (NPN cache keys) to
// runner IDs. Each runner owns `replicas` virtual points on a 64-bit ring;
// a key belongs to the first point clockwise from its hash. Adding or
// removing one runner only remaps the keys adjacent to its points —
// roughly 1/N of the space — so the other shards' caches stay hot across
// topology changes. Not safe for concurrent use; the Coordinator
// serializes access.
type ring struct {
	replicas int
	nodes    map[string]bool
	hashes   []uint64          // sorted virtual points
	owners   map[uint64]string // point → node
}

const defaultReplicas = 64

func newRing(replicas int) *ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	return &ring{
		replicas: replicas,
		nodes:    make(map[string]bool),
		owners:   make(map[uint64]string),
	}
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is a finalizing bijection (splitmix64's): FNV-1a of short,
// similar strings ("r1#0", "r1#1", …) clusters in the low bits, which
// skews the ring badly; the mixer spreads the virtual points uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (r *ring) add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		h := ringHash(node + "#" + strconv.Itoa(i))
		// A point collision between nodes is astronomically unlikely with
		// 64-bit hashes; first owner wins deterministically if it happens.
		if _, taken := r.owners[h]; !taken {
			r.owners[h] = node
			r.hashes = append(r.hashes, h)
		}
	}
	sort.Slice(r.hashes, func(i, k int) bool { return r.hashes[i] < r.hashes[k] })
}

func (r *ring) remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.hashes[:0]
	for _, h := range r.hashes {
		if r.owners[h] == node {
			delete(r.owners, h)
			continue
		}
		kept = append(kept, h)
	}
	r.hashes = kept
}

// owner returns the node a key belongs to ("" on an empty ring).
func (r *ring) owner(key string) string {
	return r.ownerAvoiding(key, nil)
}

// ownerAvoiding walks clockwise from the key's hash to the first node for
// which avoid returns false — the hand-off placement primitive: pass a
// predicate rejecting the dead runner and the key lands on the next shard
// over, deterministically.
func (r *ring) ownerAvoiding(key string, avoid func(string) bool) string {
	if len(r.hashes) == 0 {
		return ""
	}
	h := ringHash(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	seen := make(map[string]bool, len(r.nodes))
	for i := 0; i < len(r.hashes); i++ {
		p := r.hashes[(start+i)%len(r.hashes)]
		node := r.owners[p]
		if seen[node] {
			continue
		}
		seen[node] = true
		if avoid == nil || !avoid(node) {
			return node
		}
	}
	return ""
}
