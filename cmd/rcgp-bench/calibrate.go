package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// On the 2-vCPU virtual machines this benchmark was built on, the host's
// speed drifts over seconds to minutes: the same job, same seed, in one
// process, takes 510 or 970 ms depending on when it runs, and raw timings
// of 25-second runs spread up to 34 % over ten seeds. So every run times a
// calibration kernel calAround times right before and right after its
// timed phase, and the library workloads also before every job, on as
// many goroutines as the workload uses: frozen, bench-owned code doing
// bit-parallel simulation of a random majority-gate network small enough
// (32 KiB) to stay in L1. A full collection runs first, so no garbage or
// background GC work the program left behind can slow the kernel: only
// the host moves it, and a change to the program shows in the metrics in
// full.
// Time-valued metrics are divided by slowdown^calElasticity, where
// slowdown is the run's median sweep over referenceSweep.
//
// How closely the jobs follow the kernel depends on what slows the host.
// Fitted over the runs of a set, job time went as the kernel's to the
// power 0.17-0.45 in one measurement, and 0.64-1.54 (library workloads)
// and 0.17 (serve-mix) in another. The exponent 0.5 sits between; a wrong
// exponent weakens the correction but cannot hide a program change.
const (
	calGates       = 256
	calWords       = 16
	calSweeps      = 9
	referenceSweep = 7 * time.Microsecond
	calElasticity  = 0.5
)

// calInputs is how many of the network's nodes are primary inputs.
const calInputs = 16

type calNet struct {
	in   [][3]int32
	vals [][calWords]uint64
}

func newCalNet() *calNet {
	n := &calNet{in: make([][3]int32, calGates), vals: make([][calWords]uint64, calGates)}
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for g := range n.vals {
		for w := range n.vals[g] {
			n.vals[g][w] = next()
		}
		if g >= calInputs {
			for k := range n.in[g] {
				n.in[g][k] = int32(next() % uint64(g))
			}
		}
	}
	return n
}

// sweep simulates the network once, in place.
func (n *calNet) sweep() {
	for g := calInputs; g < calGates; g++ {
		a, b, c, o := &n.vals[n.in[g][0]], &n.vals[n.in[g][1]], &n.vals[n.in[g][2]], &n.vals[g]
		for w := 0; w < calWords; w++ {
			o[w] = a[w]&b[w] | a[w]&^c[w] | b[w]&^c[w]
		}
	}
}

// calibrator times the kernel between units of work, on one network per
// goroutine the work uses.
type calibrator struct {
	nets   []*calNet
	sweeps []float64
	spent  time.Duration
}

func newCalibrator(parallelism int) *calibrator {
	c := &calibrator{}
	for i := 0; i < parallelism; i++ {
		c.nets = append(c.nets, newCalNet())
	}
	return c
}

// measure collects garbage, then runs calSweeps sweeps on every network at
// once and keeps their median time. Its whole cost counts as spent.
func (c *calibrator) measure() {
	t0 := time.Now()
	runtime.GC()
	times := make([][calSweeps]float64, len(c.nets))
	var wg sync.WaitGroup
	for i, n := range c.nets {
		wg.Add(1)
		go func(i int, n *calNet) {
			defer wg.Done()
			for k := range times[i] {
				s := time.Now()
				n.sweep()
				times[i][k] = float64(time.Since(s))
			}
		}(i, n)
	}
	wg.Wait()
	var all []float64
	for _, t := range times {
		all = append(all, t[:]...)
	}
	c.sweeps = append(c.sweeps, median(all))
	c.spent += time.Since(t0)
}

// slowdown is the median sweep over referenceSweep: above 1 the host ran
// slower than the reference. Without a measurement it is 1.
func (c *calibrator) slowdown() float64 {
	if len(c.sweeps) == 0 {
		return 1
	}
	return median(c.sweeps) / float64(referenceSweep)
}

// toReference scales time-valued metrics to the reference host speed:
// times are divided by slowdown^calElasticity, rates multiplied.
func toReference(m map[string]metric, slowdown float64) {
	f := math.Pow(slowdown, calElasticity)
	for name, v := range m {
		switch v.Unit {
		case "ms", "s":
			v.Value /= f
		case "1/s":
			v.Value *= f
		}
		m[name] = v
	}
}
