// Package template is the identity-template rewriting database: a library
// of precomputed minimal RQFP implementations of small function classes,
// keyed by the NPN-canonical signature machinery of internal/cache, plus
// the deterministic window-rewrite pass that applies them.
//
// The library's entries come from two sources. Offline, the unroll-exclude
// enumeration of internal/exact exhaustively lists small identity circuits
// (circuits computing the identity function); every contiguous cut of such
// a circuit is a function class together with a known implementation, and
// exact synthesis minimizes each class representative once — a shipped
// starter library covers ≤4-input classes. Online, every window the
// rewrite pass scans (and every improvement any pass discovers) can be
// learned back into the library and fanned out over the fleet replication
// log, so the whole cluster accumulates rewrites: the more the service
// runs, the less it searches.
//
// Safety mirrors the result cache: an entry is re-verified by exhaustive
// simulation before it is stored, loaded, or merged, and every splice the
// rewrite pass performs is additionally proved against the job's
// specification oracle. A corrupt library can cost CPU, never a wrong
// circuit.
package template

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/reversible-eda/rcgp/internal/cache"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// MaxInputs bounds template function classes: windows stay exhaustively
// simulable well below the cache's 14-input ceiling, and small classes are
// where precomputed rewrites pay off.
const MaxInputs = 8

// MaxOutputs bounds the output side of a template class (a window of w
// gates exposes at most 3w ports; learned windows are small).
const MaxOutputs = 16

// ErrOutOfRange is returned for functions outside the template range.
var ErrOutOfRange = errors.New("template: function outside the template range")

// Entry is one template: the minimal known RQFP implementation of a
// function class, serialized as the canonical class representative under
// its class key. Entries are the unit of on-disk storage and of fleet
// replication.
type Entry struct {
	Key     string `json:"key"`
	NumPI   int    `json:"num_pi"`
	NumPO   int    `json:"num_po"`
	Gates   int    `json:"gates"`
	Netlist string `json:"netlist"`
}

// Stats is a point-in-time view of library activity.
type Stats struct {
	Entries      int   `json:"entries"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Learned      int64 `json:"learned"`
	LearnSkips   int64 `json:"learn_skips"`
	Rejects      int64 `json:"rejects"`
	Merges       int64 `json:"merges"`
	MergeSkips   int64 `json:"merge_skips"`
	MergeRejects int64 `json:"merge_rejects"`
}

// Library is a concurrency-safe template store. The zero value is not
// usable; construct with New.
type Library struct {
	mu        sync.RWMutex
	entries   map[string]Entry
	replicate func(Entry)

	statsMu sync.Mutex
	stats   Stats
}

// New returns an empty library.
func New() *Library {
	return &Library{entries: make(map[string]Entry)}
}

// Len returns the number of entries.
func (l *Library) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Stats snapshots the activity counters.
func (l *Library) Stats() Stats {
	l.statsMu.Lock()
	s := l.stats
	l.statsMu.Unlock()
	l.mu.RLock()
	s.Entries = len(l.entries)
	l.mu.RUnlock()
	return s
}

func (l *Library) bump(f func(*Stats)) {
	l.statsMu.Lock()
	f(&l.stats)
	l.statsMu.Unlock()
}

// SetReplicator registers fn to receive every entry a Learn call adopts
// (new class or strictly fewer gates than the stored implementation).
// Entries adopted via Merge or Load do not re-trigger fn, so replication
// fan-out cannot loop. Call before concurrent use; nil disables.
func (l *Library) SetReplicator(fn func(Entry)) {
	l.mu.Lock()
	l.replicate = fn
	l.mu.Unlock()
}

// Learn offers an implementation of the function given by tables. The
// netlist is canonicalized onto the class representative, re-verified by
// exhaustive simulation, and adopted only when the class is new or the
// implementation beats the stored gate count. An offer that cannot beat
// the stored entry even before canonicalization is skipped without that
// work. Returns the stored entry and whether it was adopted.
func (l *Library) Learn(tables []tt.TT, net *rqfp.Netlist) (Entry, bool, error) {
	e, adopted, err := l.add(tables, net, true)
	switch {
	case err != nil:
		l.bump(func(s *Stats) { s.Rejects++ })
	case adopted:
		l.bump(func(s *Stats) { s.Learned++ })
	default:
		l.bump(func(s *Stats) { s.LearnSkips++ })
	}
	return e, adopted, err
}

// Merge adopts an entry produced by another library instance (a fleet peer
// or an on-disk file). The netlist is re-simulated locally and stored
// through the normal verifying path; the recomputed class key must equal
// the advertised one, so a canonicalization skew across the fleet surfaces
// as an error instead of silently forking the key space.
func (l *Library) Merge(e Entry) error {
	net, err := rqfp.ReadText(strings.NewReader(e.Netlist))
	if err != nil {
		l.bump(func(s *Stats) { s.MergeRejects++ })
		return fmt.Errorf("template: merge: unreadable netlist: %w", err)
	}
	if net.NumPI != e.NumPI || len(net.POs) != e.NumPO {
		l.bump(func(s *Stats) { s.MergeRejects++ })
		return fmt.Errorf("template: merge: shape mismatch: %d/%d inputs, %d/%d outputs",
			net.NumPI, e.NumPI, len(net.POs), e.NumPO)
	}
	tables := net.TruthTables()
	// Check the advertised key before storing anything: a canonicalization
	// skew across the fleet must surface as an error, not silently fork the
	// key space — and a mismatched entry must not be adopted.
	key, _, err := cache.Signature(tables)
	if err != nil {
		l.bump(func(s *Stats) { s.MergeRejects++ })
		return fmt.Errorf("template: merge: %w", err)
	}
	if key != e.Key {
		l.bump(func(s *Stats) { s.MergeRejects++ })
		return fmt.Errorf("template: merge: key mismatch: advertised %q, computed %q", e.Key, key)
	}
	_, adopted, err := l.add(tables, net, false)
	if err != nil {
		l.bump(func(s *Stats) { s.MergeRejects++ })
		return fmt.Errorf("template: merge: %w", err)
	}
	if adopted {
		l.bump(func(s *Stats) { s.Merges++ })
	} else {
		l.bump(func(s *Stats) { s.MergeSkips++ })
	}
	return nil
}

// add is the single verifying store path. The netlist is transformed onto
// the canonical class representative, shrunk, re-simulated against the
// transformed tables, and kept only if it beats the stored gate count.
// Learn offers (learn) that cannot win return before the transform:
// CanonicalNetlist only rewires ports or adds polarity gates and Shrink
// only drops unreachable ones, so the stored form never has fewer gates
// than net.Shrink(). Merge always takes the full path, so a bad replicated
// entry is counted as a reject even when it would lose.
func (l *Library) add(tables []tt.TT, net *rqfp.Netlist, learn bool) (Entry, bool, error) {
	if len(tables) == 0 {
		return Entry{}, false, errors.New("template: no outputs")
	}
	n := tables[0].N
	if n < 1 || n > MaxInputs || len(tables) > MaxOutputs {
		return Entry{}, false, ErrOutOfRange
	}
	if net.NumPI != n || len(net.POs) != len(tables) {
		return Entry{}, false, fmt.Errorf("template: netlist interface %d/%d does not match tables %d/%d",
			net.NumPI, len(net.POs), n, len(tables))
	}
	key, tr, err := cache.Signature(tables)
	if err != nil {
		return Entry{}, false, fmt.Errorf("template: %w", err)
	}
	net = net.Shrink()
	if learn {
		l.mu.RLock()
		old, ok := l.entries[key]
		l.mu.RUnlock()
		if ok && old.Gates <= len(net.Gates) {
			return old, false, nil
		}
	}
	canon, err := tr.CanonicalNetlist(net)
	if err != nil {
		return Entry{}, false, fmt.Errorf("template: %w", err)
	}
	canon = canon.Shrink()
	if err := canon.Validate(); err != nil {
		return Entry{}, false, fmt.Errorf("template: canonical netlist invalid: %w", err)
	}
	want := tr.Apply(tables)
	if !tablesEqual(canon.TruthTables(), want) {
		return Entry{}, false, errors.New("template: netlist does not implement its advertised function")
	}
	var sb strings.Builder
	if err := canon.WriteText(&sb); err != nil {
		return Entry{}, false, err
	}
	entry := Entry{Key: key, NumPI: n, NumPO: len(tables), Gates: len(canon.Gates), Netlist: sb.String()}

	l.mu.Lock()
	old, ok := l.entries[key]
	if ok && old.Gates <= entry.Gates {
		l.mu.Unlock()
		return old, false, nil
	}
	l.entries[key] = entry
	fn := l.replicate
	l.mu.Unlock()
	if learn && fn != nil {
		fn(entry)
	}
	return entry, true, nil
}

// Match looks the function class of tables up and, on a hit, returns the
// stored implementation transformed back onto the request's input/output
// polarity and ordering, ready to splice. The returned entry reports the
// stored (canonical) template; the netlist's gate count can exceed
// entry.Gates when un-applying the NPN transform needs polarity gates.
func (l *Library) Match(tables []tt.TT) (*rqfp.Netlist, Entry, bool) {
	if len(tables) == 0 {
		return nil, Entry{}, false
	}
	n := tables[0].N
	if n < 1 || n > MaxInputs || len(tables) > MaxOutputs {
		return nil, Entry{}, false
	}
	key, tr, err := cache.Signature(tables)
	if err != nil {
		return nil, Entry{}, false
	}
	l.mu.RLock()
	entry, ok := l.entries[key]
	l.mu.RUnlock()
	if !ok {
		l.bump(func(s *Stats) { s.Misses++ })
		return nil, Entry{}, false
	}
	canon, err := rqfp.ReadText(strings.NewReader(entry.Netlist))
	if err != nil {
		l.bump(func(s *Stats) { s.Rejects++ })
		return nil, Entry{}, false
	}
	net, err := tr.OriginalNetlist(canon)
	if err != nil {
		l.bump(func(s *Stats) { s.Rejects++ })
		return nil, Entry{}, false
	}
	net = net.Shrink()
	// Trust but verify: the entry was simulation-checked when stored, but
	// a stale transform or corrupt record must surface as a miss here, not
	// as a failed splice downstream.
	if net.Validate() != nil || !tablesEqual(net.TruthTables(), tables) {
		l.bump(func(s *Stats) { s.Rejects++ })
		return nil, Entry{}, false
	}
	l.bump(func(s *Stats) { s.Hits++ })
	return net, entry, true
}

// Dump snapshots every entry sorted by key, for seeding a replication peer
// or saving to disk.
func (l *Library) Dump() []Entry {
	l.mu.RLock()
	out := make([]Entry, 0, len(l.entries))
	for _, e := range l.entries {
		out = append(out, e)
	}
	l.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Save writes the library as sorted JSONL (one entry per line), the
// on-disk library format.
func (l *Library) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range l.Dump() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveFile atomically writes the library to path (temp file + rename).
func (l *Library) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".template-*.jsonl")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := l.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load merges a JSONL library stream into l, re-verifying every entry
// through the normal store path (store-side re-verification on load: a
// tampered or bit-rotted file surfaces as rejected entries, never as wrong
// rewrites). A torn final line — an interrupted append — is tolerated.
// Returns the number of entries adopted and the number rejected.
func (l *Library) Load(r io.Reader) (adopted, rejected int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var pendingErr error
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if pendingErr != nil {
			// The malformed line was not the final one: corrupt file.
			return adopted, rejected, pendingErr
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			pendingErr = fmt.Errorf("template: load: malformed entry: %w", err)
			rejected++
			continue
		}
		before := l.Stats()
		if err := l.Merge(e); err != nil {
			rejected++
			continue
		}
		if l.Stats().Merges > before.Merges {
			adopted++
		}
	}
	if err := sc.Err(); err != nil {
		return adopted, rejected, err
	}
	return adopted, rejected, nil
}

// LoadFile loads a JSONL library file into l.
func (l *Library) LoadFile(path string) (adopted, rejected int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return l.Load(f)
}

func tablesEqual(a, b []tt.TT) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].N != b[i].N {
			return false
		}
		if a[i].Hex() != b[i].Hex() {
			return false
		}
	}
	return true
}
