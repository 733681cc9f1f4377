package rqfp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bits"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// fullAdderNetlist builds a tiny hand-written netlist: one normal gate
// computing MAJ-based carry plus a second stage, used across the tests.
func andGateNetlist() *Netlist {
	// Single gate computing a AND b on output port 3 (paper §3.1 example).
	n := NewNetlist(2)
	n.AddGate(Gate{In: [3]Signal{1, 2, ConstPort}, Cfg: ConfigNormal})
	n.POs = []Signal{n.Port(0, 2)}
	return n
}

func TestPortIndexing(t *testing.T) {
	n := NewNetlist(2)
	n.AddGate(Gate{})
	n.AddGate(Gate{})
	if n.GateBase(0) != 3 || n.GateBase(1) != 6 {
		t.Fatalf("bases: %d %d", n.GateBase(0), n.GateBase(1))
	}
	if n.Port(1, 1) != 7 {
		t.Fatalf("Port(1,1) = %d", n.Port(1, 1))
	}
	g, m, ok := n.PortOwner(7)
	if !ok || g != 1 || m != 1 {
		t.Fatalf("PortOwner(7) = %d %d %v", g, m, ok)
	}
	if _, _, ok := n.PortOwner(2); ok {
		t.Fatal("PI port misclassified as gate port")
	}
	if !n.IsPI(1) || !n.IsPI(2) || n.IsPI(0) || n.IsPI(3) {
		t.Fatal("IsPI wrong")
	}
}

func TestAndGateSimulation(t *testing.T) {
	n := andGateNetlist()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	got := n.TruthTables()[0]
	want := tt.FromFunc(2, func(s uint) bool { return s&1 == 1 && s>>1&1 == 1 })
	if !got.Equal(want) {
		t.Fatalf("AND netlist tt = %s, want %s", got, want)
	}
}

func TestEvalBoolMatchesSimulate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		// Half the netlists span many 64-port words of EvalBool's bit set.
		gates := 8
		if trial%2 == 1 {
			gates = 400
		}
		n := randomNetlist(4, gates, 3, r)
		tts := n.TruthTables()
		for s := uint(0); s < 16; s++ {
			outs := n.EvalBool(s)
			for i := range outs {
				if outs[i] != tts[i].Get(s) {
					t.Fatalf("trial %d s=%d out=%d: EvalBool disagrees with Simulate", trial, s, i)
				}
			}
		}
	}
}

// randomNetlist builds a random valid netlist obeying single fanout.
func randomNetlist(numPI, numGates, numPO int, r *rand.Rand) *Netlist {
	n := NewNetlist(numPI)
	avail := []Signal{}
	for i := 0; i < numPI; i++ {
		avail = append(avail, n.PIPort(i))
	}
	take := func(g int) Signal {
		// Prefer unused real ports; fall back to the constant.
		if len(avail) > 0 && r.Intn(4) != 0 {
			i := r.Intn(len(avail))
			s := avail[i]
			if s < n.GateBase(g) {
				avail[i] = avail[len(avail)-1]
				avail = avail[:len(avail)-1]
				return s
			}
		}
		return ConstPort
	}
	for g := 0; g < numGates; g++ {
		gate := Gate{Cfg: Config(r.Intn(NumConfigs))}
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

func TestRandomNetlistsValidate(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := randomNetlist(3+r.Intn(4), 5+r.Intn(20), 2+r.Intn(4), r)
		if err := n.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	// Double fanout.
	n := NewNetlist(1)
	n.AddGate(Gate{In: [3]Signal{1, 1, ConstPort}})
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "single-fanout") {
		t.Fatalf("expected single-fanout error, got %v", err)
	}
	// Forward reference.
	n2 := NewNetlist(1)
	n2.AddGate(Gate{In: [3]Signal{2, ConstPort, ConstPort}})
	if err := n2.Validate(); err == nil || !strings.Contains(err.Error(), "topological") {
		t.Fatalf("expected topological error, got %v", err)
	}
	// Out-of-range PO.
	n3 := NewNetlist(1)
	n3.POs = []Signal{99}
	if err := n3.Validate(); err == nil {
		t.Fatal("expected invalid PO error")
	}
	// PO + gate input sharing a port.
	n4 := NewNetlist(1)
	n4.AddGate(Gate{In: [3]Signal{1, ConstPort, ConstPort}})
	n4.AddGate(Gate{In: [3]Signal{2, ConstPort, ConstPort}})
	n4.POs = []Signal{2}
	if err := n4.Validate(); err == nil {
		t.Fatal("expected shared-port error")
	}
}

func TestActiveAndShrink(t *testing.T) {
	n := NewNetlist(2)
	n.AddGate(Gate{In: [3]Signal{1, 2, ConstPort}, Cfg: ConfigNormal}) // used
	n.AddGate(Gate{In: [3]Signal{ConstPort, ConstPort, ConstPort}})    // useless
	n.AddGate(Gate{In: [3]Signal{3, ConstPort, ConstPort}, Cfg: ConfigSplitter})
	n.POs = []Signal{n.Port(2, 0)}
	active := n.ActiveGates()
	if !active[0] || active[1] || !active[2] {
		t.Fatalf("active = %v", active)
	}
	if n.NumActive() != 2 {
		t.Fatalf("NumActive = %d", n.NumActive())
	}
	before := n.TruthTables()
	s := n.Shrink()
	if len(s.Gates) != 2 {
		t.Fatalf("shrunk gate count = %d", len(s.Gates))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	after := s.TruthTables()
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Fatal("shrink changed function")
		}
	}
}

func TestShrinkPreservesFunctionRandom(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n := randomNetlist(4, 12, 3, r)
		s := n.Shrink()
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		a, b := n.TruthTables(), s.TruthTables()
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("trial %d: shrink changed output %d", trial, i)
			}
		}
		if len(s.Gates) != n.NumActive() {
			t.Fatalf("trial %d: shrink kept %d gates, active = %d", trial, len(s.Gates), n.NumActive())
		}
	}
}

func TestGarbageCounting(t *testing.T) {
	// Single AND gate: output ports 1 and 2 dangle → 2 garbage.
	n := andGateNetlist()
	if g := n.Garbage(); g != 2 {
		t.Fatalf("garbage = %d, want 2", g)
	}
	// Unread PI adds one.
	n2 := NewNetlist(3)
	n2.AddGate(Gate{In: [3]Signal{1, 2, ConstPort}, Cfg: ConfigNormal})
	n2.POs = []Signal{n2.Port(0, 2)}
	if g := n2.Garbage(); g != 3 { // 2 dangling ports + PI 3 unread
		t.Fatalf("garbage = %d, want 3", g)
	}
}

func TestUsersTable(t *testing.T) {
	n := andGateNetlist()
	users := n.Users()
	if users[1].Kind != UserGateInput || users[1].Gate != 0 || users[1].Input != 0 {
		t.Fatalf("users[1] = %+v", users[1])
	}
	if users[n.Port(0, 2)].Kind != UserPO || users[n.Port(0, 2)].PO != 0 {
		t.Fatalf("PO user = %+v", users[n.Port(0, 2)])
	}
	if users[n.Port(0, 0)].Kind != UserNone {
		t.Fatal("dangling port should have no user")
	}
	// Every CGP offspring copies one entry per port.
	if size := unsafe.Sizeof(PortUser{}); size != 12 {
		t.Fatalf("PortUser is %d bytes, want 12", size)
	}
}

func TestLevelsAndBuffers(t *testing.T) {
	// Chain: g0 from PIs, g1 from g0 and a PI. The PI→g1 edge spans two
	// levels → 1 buffer; PO alignment adds nothing extra for single PO at
	// the top.
	n := NewNetlist(3)
	n.AddGate(Gate{In: [3]Signal{1, 2, ConstPort}, Cfg: ConfigNormal})
	n.AddGate(Gate{In: [3]Signal{n.Port(0, 2), 3, ConstPort}, Cfg: ConfigNormal})
	n.POs = []Signal{n.Port(1, 2)}
	depth, buffers := n.DepthAndBuffers()
	if depth != 2 {
		t.Fatalf("depth = %d, want 2", depth)
	}
	if buffers != 1 {
		t.Fatalf("buffers = %d, want 1 (PI x3 must wait one phase)", buffers)
	}
	st := n.ComputeStats()
	if st.Gates != 2 || st.JJs != 2*JJsPerGate+1*JJsPerBuffer {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPOAlignmentBuffers(t *testing.T) {
	// Two POs at different depths: the shallow one needs alignment buffers.
	n := NewNetlist(2)
	n.AddGate(Gate{In: [3]Signal{1, 2, ConstPort}, Cfg: ConfigNormal}) // level 1
	n.AddGate(Gate{In: [3]Signal{n.Port(0, 2), ConstPort, ConstPort}}) // level 2
	n.POs = []Signal{n.Port(1, 0), n.Port(0, 0)}                       // levels 2 and 1
	depth, buffers := n.DepthAndBuffers()
	if depth != 2 {
		t.Fatalf("depth = %d", depth)
	}
	if buffers != 1 {
		t.Fatalf("buffers = %d, want 1 (PO alignment)", buffers)
	}
}

func TestInsertBuffersValidates(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := randomNetlist(4, 15, 4, r)
		b := n.InsertBuffers()
		if err := b.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if b.TotalBuffers != b.Stats().Buffers {
			t.Fatalf("trial %d: buffer count mismatch", trial)
		}
		// Balanced circuit preserves function (buffers are pure delays, so
		// compare the underlying shrunk netlist).
		a, c := n.TruthTables(), b.Net.TruthTables()
		for i := range a {
			if !a[i].Equal(c[i]) {
				t.Fatalf("trial %d: buffer insertion changed function", trial)
			}
		}
		// Heuristic leveling must never beat the trivial ASAP lower bound
		// check: every edge spans ≥ 1 level (validated) and stats agree.
		st := n.ComputeStats()
		if st.Gates != len(b.Net.Gates) {
			t.Fatalf("trial %d: gate count mismatch %d vs %d", trial, st.Gates, len(b.Net.Gates))
		}
	}
}

func TestStringNotation(t *testing.T) {
	n := andGateNetlist()
	s := n.String()
	want := "(1, 2, 0, 100-010-001)(5)"
	if s != want {
		t.Fatalf("String = %q, want %q", s, want)
	}
}

func TestTextRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := randomNetlist(4, 10, 3, r)
		var buf bytes.Buffer
		if err := n.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.String())
		}
		if m.NumPI != n.NumPI || len(m.Gates) != len(n.Gates) || len(m.POs) != len(n.POs) {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		a, b := n.TruthTables(), m.TruthTables()
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("trial %d: function changed in round trip", trial)
			}
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",
		".rqfp\n.gate 1 0 0 000-000-000\n",
		".rqfp\n.pi x\n",
		".rqfp\n.pi 1\n.gate 5 0 0 000-000-000\n.po 2\n.end\n",
		".rqfp\n.pi 1\n.bogus\n",
		".rqfp\n.pi 1\n.gate 1 0 0 bad\n",
		".rqfp\n.pi 1\n.po zzz\n",
	}
	for i, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should fail:\n%s", i, c)
		}
	}
}

func TestFromMIGPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		a := randomAIGForMIG(4+r.Intn(3), 10+r.Intn(30), 2+r.Intn(4), r)
		m := mig.FromAIG(a)
		n, err := FromMIG(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tm := m.TruthTables()
		tn := n.TruthTables()
		for i := range tm {
			if !tm[i].Equal(tn[i]) {
				t.Fatalf("trial %d output %d: conversion changed function", trial, i)
			}
		}
	}
}

func TestFromMIGEdgeCases(t *testing.T) {
	// Constant, complemented-constant, plain-PI, and complemented-PI POs.
	m := mig.New(2)
	m.AddPO(mig.Const0)
	m.AddPO(mig.Const1)
	m.AddPO(m.PI(0))
	m.AddPO(m.PI(0).Not()) // second use of PI forces a splitter as well
	m.AddPO(m.And(m.PI(0), m.PI(1)).Not())
	n, err := FromMIG(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	tm := m.TruthTables()
	tn := n.TruthTables()
	for i := range tm {
		if !tm[i].Equal(tn[i]) {
			t.Fatalf("output %d differs", i)
		}
	}
}

func TestFromMIGHighFanout(t *testing.T) {
	// One node feeding 9 consumers forces a splitter tree.
	m := mig.New(2)
	x := m.And(m.PI(0), m.PI(1))
	for i := 0; i < 9; i++ {
		m.AddPO(x)
	}
	n, err := FromMIG(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 native copies + k splitters give 3+2k ≥ 9 → k = 3 splitters.
	if len(n.Gates) != 1+3 {
		t.Fatalf("gate count = %d, want 4 (1 logic + 3 splitters)", len(n.Gates))
	}
	tts := n.TruthTables()
	want := tt.FromFunc(2, func(s uint) bool { return s == 3 })
	for i := range tts {
		if !tts[i].Equal(want) {
			t.Fatalf("PO %d wrong", i)
		}
	}
}

func randomAIGForMIG(nPI, nAnds, nPOs int, r *rand.Rand) *aig.AIG {
	a := aig.New(nPI)
	edges := []aig.Lit{aig.Const0}
	for i := 0; i < nPI; i++ {
		edges = append(edges, a.PI(i))
	}
	for i := 0; i < nAnds; i++ {
		x := edges[r.Intn(len(edges))].NotIf(r.Intn(2) == 1)
		y := edges[r.Intn(len(edges))].NotIf(r.Intn(2) == 1)
		edges = append(edges, a.And(x, y))
	}
	for i := 0; i < nPOs; i++ {
		a.AddPO(edges[r.Intn(len(edges))].NotIf(r.Intn(2) == 1))
	}
	return a
}

func TestGarbageLowerBound(t *testing.T) {
	if GarbageLowerBound(5, 1) != 4 || GarbageLowerBound(2, 4) != 0 {
		t.Fatal("g_lb wrong")
	}
}

func TestSimContextReuse(t *testing.T) {
	n := andGateNetlist()
	ins := bits.ExhaustiveInputs(2)
	ctx := NewSimContext(n.NumPorts(), len(ins[0]))
	ctx.Run(n, ins, nil)
	first := ctx.Port(n.POs[0]).Clone()
	// Run again; must be identical (context reuse is deterministic).
	ctx.Run(n, ins, nil)
	if !first.Eq(ctx.Port(n.POs[0])) {
		t.Fatal("context reuse changed results")
	}
	// Context grows when given a bigger netlist.
	big := NewNetlist(2)
	for i := 0; i < 10; i++ {
		big.AddGate(Gate{In: [3]Signal{ConstPort, ConstPort, ConstPort}})
	}
	ctx.Run(big, ins, nil)
}

func BenchmarkSimulate100Gates(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := randomNetlist(8, 100, 8, r)
	ins := bits.ExhaustiveInputs(8)
	ctx := NewSimContext(n.NumPorts(), len(ins[0]))
	active := n.ActiveGates()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx.Run(n, ins, active)
	}
}
