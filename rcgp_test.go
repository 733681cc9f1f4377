package rcgp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	d, err := Benchmark("decoder_2_4")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumInputs() != 2 || d.NumOutputs() != 4 {
		t.Fatalf("shape %d/%d", d.NumInputs(), d.NumOutputs())
	}
	res, err := d.Synthesize(Options{Generations: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Circuit()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	ok, err := d.Verify(c)
	if err != nil || !ok {
		t.Fatalf("verification failed: %v %v", ok, err)
	}
	st := res.Stats()
	init := res.Initial().Stats()
	if st.Gates > init.Gates || st.Garbage > init.Garbage {
		t.Fatalf("no improvement: %v vs %v", st, init)
	}
	if st.JJs != 24*st.Gates+4*st.Buffers {
		t.Fatalf("JJ accounting wrong: %v", st)
	}
	// Behavioral spot check: decoder output x must be one-hot.
	for x := uint(0); x < 4; x++ {
		outs := c.Evaluate(x)
		for o, v := range outs {
			if v != (uint(o) == x) {
				t.Fatalf("decode(%d) output %d = %v", x, o, v)
			}
		}
	}
}

func TestFacadeParsers(t *testing.T) {
	v := `module m (a, b, y); input a, b; output y; assign y = a & b; endmodule`
	d, err := FromVerilog(strings.NewReader(v))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumInputs() != 2 || d.NumOutputs() != 1 {
		t.Fatal("verilog shape wrong")
	}
	b := ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
	if _, err := FromBLIF(strings.NewReader(b)); err != nil {
		t.Fatal(err)
	}
	aag := "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"
	if _, err := FromAIGER(strings.NewReader(aag)); err != nil {
		t.Fatal(err)
	}
	p := ".i 2\n.o 1\n11 1\n.e\n"
	if _, err := FromPLA(strings.NewReader(p)); err != nil {
		t.Fatal(err)
	}
	rl := ".numvars 3\n.variables a b c\n.begin\nt3 a b c\n.end\n"
	if _, err := FromREAL(strings.NewReader(rl)); err != nil {
		t.Fatal(err)
	}
}

func TestFromFuncAndHex(t *testing.T) {
	d := FromFunc(2, 1, func(x uint) uint {
		if x == 3 {
			return 1
		}
		return 0
	})
	res, err := d.Synthesize(Options{Generations: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	outs := res.Circuit().Evaluate(3)
	if !outs[0] {
		t.Fatal("AND(1,1) != 1")
	}
	d2, err := FromTruthTablesHex(2, []string{"8"})
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumInputs() != 2 {
		t.Fatal("hex design shape wrong")
	}
	if _, err := FromTruthTablesHex(2, []string{"zz"}); err == nil {
		t.Fatal("bad hex accepted")
	}
	if _, err := FromTruthTablesHex(2, nil); err == nil {
		t.Fatal("empty outputs accepted")
	}
	for _, n := range []int{-1, 21} {
		if _, err := FromTruthTablesHex(n, []string{"8"}); err == nil {
			t.Fatalf("%d inputs accepted", n)
		}
	}
}

func TestCircuitSerializationRoundTrip(t *testing.T) {
	d, _ := Benchmark("4gt10")
	res, err := d.Synthesize(Options{Generations: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Circuit().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCircuit(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := res.Circuit().Equivalent(back)
	if err != nil || !eq {
		t.Fatalf("round trip not equivalent: %v %v", eq, err)
	}
}

func TestExactFacade(t *testing.T) {
	d, _ := Benchmark("decoder_2_4")
	c, err := d.SynthesizeExact(ExactOptions{MaxGates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 3 {
		t.Fatalf("exact gates = %d, want 3", c.NumGates())
	}
	ok, err := d.Verify(c)
	if err != nil || !ok {
		t.Fatal("exact result fails verification")
	}
	// Wide designs are rejected up front.
	wide, _ := Benchmark("intdiv10")
	if _, err := wide.SynthesizeExact(ExactOptions{}); err == nil {
		t.Fatal("exact should reject 10-input designs")
	}
}

func TestBenchmarkNames(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 20 {
		t.Fatalf("got %d benchmark names, want 20", len(names))
	}
	for _, n := range names {
		if _, err := Benchmark(n); err != nil {
			t.Errorf("Benchmark(%q): %v", n, err)
		}
	}
	if _, err := Benchmark("bogus"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestInitializationOnly(t *testing.T) {
	d, _ := Benchmark("c17")
	res, err := d.Synthesize(Options{InitializationOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 0 {
		t.Fatal("CGP ran despite InitializationOnly")
	}
	if res.Stats() != res.Initial().Stats() {
		t.Fatal("baseline differs from final in init-only mode")
	}
}

func TestProgressCallbackFacade(t *testing.T) {
	d, _ := Benchmark("ham3")
	called := 0
	_, err := d.Synthesize(Options{Generations: 2000, Seed: 1, Progress: func(gen, gates, garbage int) {
		called++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if called == 0 {
		t.Fatal("progress callback never fired")
	}
}

func TestWriteVerilogFacade(t *testing.T) {
	d, _ := Benchmark("4gt10")
	res, err := d.Synthesize(Options{Generations: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Circuit().WriteVerilog(&buf, "gt10"); err != nil {
		t.Fatal(err)
	}
	back, err := FromVerilog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumInputs() != 4 || back.NumOutputs() != 1 {
		t.Fatal("re-imported Verilog has wrong shape")
	}
	// Verify the exported module against the original design.
	base, err := back.Synthesize(Options{InitializationOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := d.Verify(base.Circuit())
	if err != nil || !ok {
		t.Fatalf("Verilog export not equivalent: %v %v", ok, err)
	}
}

// TestCircuitEvaluateAllocatesOnlyResult pins Circuit.Evaluate to one
// allocation per call — its result — on a 24-input adder and on hwb8, whose
// 5,000-odd ports are more than a byte-per-port stack buffer would hold.
// Callers sweep tens of thousands of assignments per circuit, so any
// per-call buffer would be garbage in proportion.
func TestCircuitEvaluateAllocatesOnlyResult(t *testing.T) {
	const n = 12
	var sb strings.Builder
	var ins, outs []string
	for k := 0; k < n; k++ {
		ins = append(ins, fmt.Sprintf("a%d", k), fmt.Sprintf("b%d", k))
	}
	for k := 0; k <= n; k++ {
		outs = append(outs, fmt.Sprintf("s%d", k))
	}
	fmt.Fprintf(&sb, "module add%d(%s, %s);\ninput %s;\noutput %s;\n", n,
		strings.Join(ins, ", "), strings.Join(outs, ", "), strings.Join(ins, ", "), strings.Join(outs, ", "))
	carry := "1'b0"
	for k := 0; k < n; k++ {
		fmt.Fprintf(&sb, "wire p%d, c%d;\nassign p%d = a%d ^ b%d;\n", k, k+1, k, k, k)
		fmt.Fprintf(&sb, "assign s%d = p%d ^ %s;\n", k, k, carry)
		fmt.Fprintf(&sb, "assign c%d = (a%d & b%d) | (p%d & %s);\n", k+1, k, k, k, carry)
		carry = fmt.Sprintf("c%d", k+1)
	}
	fmt.Fprintf(&sb, "assign s%d = %s;\nendmodule\n", n, carry)
	d, err := FromVerilog(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Synthesize(Options{Generations: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Circuit()
	// Inputs alternate a0, b0, a1, b1, …; 0xABC + 0x5F3 = 0x10AF.
	a, b := uint(0xABC), uint(0x5F3)
	var x uint
	for k := 0; k < n; k++ {
		x |= (a>>uint(k)&1)<<uint(2*k) | (b>>uint(k)&1)<<uint(2*k+1)
	}
	var sum uint
	for k, v := range c.Evaluate(x) {
		if v {
			sum |= 1 << uint(k)
		}
	}
	if sum != a+b {
		t.Fatalf("adder evaluates %#x + %#x = %#x", a, b, sum)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Evaluate(x) }); allocs != 1 {
		t.Fatalf("Circuit.Evaluate made %v allocations per call, want 1", allocs)
	}

	hwb8, err := Benchmark("hwb8")
	if err != nil {
		t.Fatal(err)
	}
	if res, err = hwb8.Synthesize(Options{Generations: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	c = res.Circuit()
	if allocs := testing.AllocsPerRun(100, func() { c.Evaluate(0xa5) }); allocs != 1 {
		t.Fatalf("hwb8: Circuit.Evaluate made %v allocations per call, want 1", allocs)
	}
}
