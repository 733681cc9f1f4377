package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/internal/bench"
)

// reference is the bench's own statement of what a job's circuit must
// compute, kept apart from the program's equivalence oracle: eval returns
// output o of the specification in bit o.
type reference struct {
	inputs, outputs int
	eval            func(x uint64) uint64
}

// exhaustiveInputs is the widest reference checked on every assignment;
// wider ones are checked on sampledAssignments seeded random assignments.
const (
	exhaustiveInputs   = 16
	sampledAssignments = 1 << 16
)

// benchmarkReference reads a paper benchmark's truth tables into a lookup
// table.
func benchmarkReference(name string) (reference, error) {
	c, err := bench.ByName(name)
	if err != nil {
		return reference{}, err
	}
	table := make([]uint64, 1<<uint(c.NumPI))
	for x := range table {
		for o, f := range c.Tables {
			if f.Get(uint(x)) {
				table[x] |= 1 << uint(o)
			}
		}
	}
	return reference{inputs: c.NumPI, outputs: c.NumPO, eval: func(x uint64) uint64 { return table[x] }}, nil
}

// checkCircuit compares the circuit with the reference on every assignment
// (up to exhaustiveInputs inputs) or on seeded random ones.
func checkCircuit(c *rcgp.Circuit, ref reference, seed int64) error {
	st := c.Stats()
	if st.Inputs != ref.inputs || st.Outputs != ref.outputs {
		return fmt.Errorf("circuit has %d inputs and %d outputs, reference %d and %d", st.Inputs, st.Outputs, ref.inputs, ref.outputs)
	}
	n := uint64(1) << uint(ref.inputs)
	var rng *rand.Rand
	if ref.inputs > exhaustiveInputs {
		n = sampledAssignments
		rng = rand.New(rand.NewSource(seed))
	}
	for i := uint64(0); i < n; i++ {
		x := i
		if rng != nil {
			x = rng.Uint64() & (1<<uint(ref.inputs) - 1)
		}
		var got uint64
		for o, b := range c.Evaluate(uint(x)) {
			if b {
				got |= 1 << uint(o)
			}
		}
		if want := ref.eval(x); got != want {
			return fmt.Errorf("assignment %#x: circuit gives %#x, reference %#x", x, got, want)
		}
	}
	return nil
}

// checkJobs runs the reference check of every finished job on two
// goroutines and records mismatches on the jobs. It runs outside the timed
// window.
func checkJobs(jobs []*job, seed int64) {
	var wg sync.WaitGroup
	next := make(chan *job)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				j.mismatch = checkJob(j, seed)
			}
		}()
	}
	for _, j := range jobs {
		if j.err == nil {
			next <- j
		}
	}
	close(next)
	wg.Wait()
}

func checkJob(j *job, seed int64) error {
	c := j.circuit
	if c == nil {
		var err error
		if c, err = rcgp.ReadCircuit(strings.NewReader(j.netlist)); err != nil {
			return fmt.Errorf("%s: returned netlist: %w", j.trace, err)
		}
	}
	if err := checkCircuit(c, j.ref, mix(seed, int64(j.seq))); err != nil {
		return fmt.Errorf("%s (%s): %w", j.trace, j.label, err)
	}
	return nil
}
