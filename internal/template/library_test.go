package template

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// randNet builds a random valid netlist obeying single fanout (the idiom of
// the rqfp package's own tests).
func randNet(numPI, numGates, numPO int, r *rand.Rand) *rqfp.Netlist {
	n := rqfp.NewNetlist(numPI)
	avail := []rqfp.Signal{}
	for i := 0; i < numPI; i++ {
		avail = append(avail, n.PIPort(i))
	}
	take := func(g int) rqfp.Signal {
		if len(avail) > 0 && r.Intn(4) != 0 {
			i := r.Intn(len(avail))
			s := avail[i]
			if s < n.GateBase(g) {
				avail[i] = avail[len(avail)-1]
				avail = avail[:len(avail)-1]
				return s
			}
		}
		return rqfp.ConstPort
	}
	for g := 0; g < numGates; g++ {
		gate := rqfp.Gate{Cfg: rqfp.Config(r.Intn(rqfp.NumConfigs))}
		for j := 0; j < 3; j++ {
			gate.In[j] = take(g)
		}
		idx := n.AddGate(gate)
		for m := 0; m < 3; m++ {
			avail = append(avail, n.Port(idx, m))
		}
	}
	for i := 0; i < numPO && len(avail) > 0; i++ {
		k := r.Intn(len(avail))
		n.POs = append(n.POs, avail[k])
		avail[k] = avail[len(avail)-1]
		avail = avail[:len(avail)-1]
	}
	return n
}

// passthroughPair returns one function class with a 1-gate and a functionally
// identical 2-gate implementation (the second gate configured as a
// passthrough of the first gate's output, found by exhausting the 512
// inverter configurations).
func passthroughPair(t *testing.T) (tables []tt.TT, one, two *rqfp.Netlist) {
	t.Helper()
	one = rqfp.NewNetlist(3)
	one.AddGate(rqfp.Gate{In: [3]rqfp.Signal{one.PIPort(0), one.PIPort(1), one.PIPort(2)}})
	one.POs = []rqfp.Signal{one.Port(0, 0)}
	tables = one.TruthTables()
	for cfg := 0; cfg < rqfp.NumConfigs; cfg++ {
		n := rqfp.NewNetlist(3)
		n.AddGate(rqfp.Gate{In: [3]rqfp.Signal{n.PIPort(0), n.PIPort(1), n.PIPort(2)}})
		n.AddGate(rqfp.Gate{In: [3]rqfp.Signal{n.Port(0, 0), rqfp.ConstPort, rqfp.ConstPort}, Cfg: rqfp.Config(cfg)})
		n.POs = []rqfp.Signal{n.Port(1, 0)}
		if n.Validate() == nil && tablesEqual(n.TruthTables(), tables) {
			return tables, one, n
		}
	}
	t.Fatal("no passthrough configuration found")
	return nil, nil, nil
}

func TestLearnMatchRoundtrip(t *testing.T) {
	lib := New()
	r := rand.New(rand.NewSource(11))
	learned := 0
	for trial := 0; trial < 60; trial++ {
		net := randNet(1+r.Intn(4), 1+r.Intn(3), 1+r.Intn(3), r)
		if len(net.POs) == 0 {
			continue
		}
		tables := net.TruthTables()
		if _, adopted, err := lib.Learn(tables, net); err != nil {
			t.Fatalf("trial %d: learn: %v", trial, err)
		} else if adopted {
			learned++
		}
		got, entry, ok := lib.Match(tables)
		if !ok {
			t.Fatalf("trial %d: no match immediately after learn", trial)
		}
		if !tablesEqual(got.TruthTables(), tables) {
			t.Fatalf("trial %d: matched netlist computes a different function", trial)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: matched netlist invalid: %v", trial, err)
		}
		if entry.NumPI != net.NumPI || entry.NumPO != len(net.POs) {
			t.Fatalf("trial %d: entry shape %d/%d, offered %d/%d",
				trial, entry.NumPI, entry.NumPO, net.NumPI, len(net.POs))
		}
	}
	if learned == 0 {
		t.Fatal("no trial learned anything")
	}
	s := lib.Stats()
	if s.Entries != lib.Len() || s.Hits == 0 || s.Rejects != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLearnKeepsFewestGates(t *testing.T) {
	tables, one, two := passthroughPair(t)

	lib := New()
	big, adopted, err := lib.Learn(tables, two)
	if err != nil || !adopted {
		t.Fatalf("learning the 2-gate implementation: adopted=%v err=%v", adopted, err)
	}
	small, adopted, err := lib.Learn(tables, one)
	if err != nil || !adopted {
		t.Fatalf("learning the 1-gate implementation: adopted=%v err=%v", adopted, err)
	}
	if small.Gates >= big.Gates {
		t.Fatalf("1-gate implementation stored as %d gates, 2-gate as %d", small.Gates, big.Gates)
	}
	// Re-offering the worse implementation is a skip, not a downgrade.
	kept, adopted, err := lib.Learn(tables, two)
	if err != nil || adopted {
		t.Fatalf("re-learning the worse implementation: adopted=%v err=%v", adopted, err)
	}
	if kept.Gates != small.Gates {
		t.Fatalf("library downgraded from %d to %d gates", small.Gates, kept.Gates)
	}
	if s := lib.Stats(); s.Learned != 2 || s.LearnSkips != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	lib := New()
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		net := randNet(1+r.Intn(4), 1+r.Intn(3), 1+r.Intn(3), r)
		if len(net.POs) == 0 {
			continue
		}
		lib.Learn(net.TruthTables(), net)
	}
	if lib.Len() == 0 {
		t.Fatal("empty library")
	}
	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()

	back := New()
	adopted, rejected, err := back.Load(strings.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 0 || adopted != lib.Len() {
		t.Fatalf("load adopted=%d rejected=%d, want %d/0", adopted, rejected, lib.Len())
	}
	a, b := lib.Dump(), back.Dump()
	if len(a) != len(b) {
		t.Fatalf("dump lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs after roundtrip:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	// Saving the loaded library reproduces the bytes — the format is
	// canonical (sorted keys, one JSON object per line).
	var buf2 bytes.Buffer
	if err := back.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != saved {
		t.Fatal("save → load → save is not byte-identical")
	}
}

func TestLoadToleratesTornFinalLine(t *testing.T) {
	tables, one, _ := passthroughPair(t)
	lib := New()
	if _, _, err := lib.Learn(tables, one); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// A torn final line (interrupted append) is tolerated.
	torn := buf.String() + `{"key":"npn:tr`
	back := New()
	adopted, rejected, err := back.Load(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn final line must be tolerated, got %v", err)
	}
	if adopted != 1 || rejected != 1 {
		t.Fatalf("adopted=%d rejected=%d, want 1/1", adopted, rejected)
	}

	// The same garbage mid-file is corruption, not a tear.
	corrupt := `{"key":"npn:tr` + "\n" + buf.String()
	if _, _, err := New().Load(strings.NewReader(corrupt)); err == nil {
		t.Fatal("malformed mid-file line must fail the load")
	}
}

func TestMergeRejectsTamperedEntries(t *testing.T) {
	tables, one, _ := passthroughPair(t)
	lib := New()
	if _, _, err := lib.Learn(tables, one); err != nil {
		t.Fatal(err)
	}
	good := lib.Dump()[0]

	// Advertised key disagrees with the netlist's recomputed class key.
	bad := good
	bad.Key = "npn:3:1:00"
	dst := New()
	if err := dst.Merge(bad); err == nil {
		t.Fatal("key mismatch must be rejected")
	}
	// Unparseable netlist.
	bad = good
	bad.Netlist = "not a netlist"
	if err := dst.Merge(bad); err == nil {
		t.Fatal("unreadable netlist must be rejected")
	}
	// Interface shape disagrees with the netlist.
	bad = good
	bad.NumPI++
	if err := dst.Merge(bad); err == nil {
		t.Fatal("shape mismatch must be rejected")
	}
	if dst.Len() != 0 {
		t.Fatalf("rejected merges left %d entries", dst.Len())
	}
	if s := dst.Stats(); s.MergeRejects != 3 {
		t.Fatalf("stats %+v, want 3 merge rejects", s)
	}
	// The untampered entry merges fine.
	if err := dst.Merge(good); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 1 {
		t.Fatalf("len %d after good merge", dst.Len())
	}
}

func TestReplicatorFiresOnLearnNotMerge(t *testing.T) {
	tables, one, two := passthroughPair(t)

	var published []Entry
	lib := New()
	lib.SetReplicator(func(e Entry) { published = append(published, e) })

	// Learning a new class publishes it; an improvement republishes; a
	// non-improvement does not.
	if _, _, err := lib.Learn(tables, two); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lib.Learn(tables, one); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lib.Learn(tables, two); err != nil {
		t.Fatal(err)
	}
	if len(published) != 2 {
		t.Fatalf("replicator fired %d times, want 2 (adopt + improve)", len(published))
	}
	if published[1].Gates >= published[0].Gates {
		t.Fatalf("republished entry did not improve: %d then %d gates", published[0].Gates, published[1].Gates)
	}

	// Merging into a replicating library must NOT re-publish (fan-out loops
	// otherwise).
	dst := New()
	fired := 0
	dst.SetReplicator(func(Entry) { fired++ })
	if err := dst.Merge(published[1]); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("merge fired the replicator %d times", fired)
	}
}

func TestStarterLibraryLoadsVerified(t *testing.T) {
	lib, err := Starter()
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() == 0 {
		t.Fatal("starter library is empty")
	}
	// Every starter entry matches its own function after the NPN
	// round-trip.
	for _, e := range lib.Dump() {
		net, err := rqfp.ReadText(strings.NewReader(e.Netlist))
		if err != nil {
			t.Fatalf("entry %s: %v", e.Key, err)
		}
		got, _, ok := lib.Match(net.TruthTables())
		if !ok {
			t.Fatalf("entry %s: no self-match", e.Key)
		}
		if !tablesEqual(got.TruthTables(), net.TruthTables()) {
			t.Fatalf("entry %s: self-match computes a different function", e.Key)
		}
	}
}
