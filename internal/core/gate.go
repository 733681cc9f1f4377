package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinBudget is how long a gate waiter keeps polling before it parks. A
// helper that finishes its slot range early, or a coordinator that
// finishes first, is then usually still polling when the other side
// signals, so a generation's handoff costs two atomic operations rather
// than a futex sleep and wake-up. It covers the reduction between two
// generations and the imbalance between two workers' ranges on hwb8; the
// sweep it was chosen from is in EXPERIMENTS.md ("Two workers on two
// cores").
const spinBudget = 100 * time.Microsecond

// spinFor is the gate spin budget of a run that evaluates on workers
// goroutines in total, islands included. Polling pays only while every
// worker can hold a processor; with more workers than GOMAXPROCS a
// polling waiter takes the processor a working one needs, so the waiter
// parks at once. On hwb8 at GOMAXPROCS 2, polling anyway made Workers 4
// and 8 slower (EXPERIMENTS.md, "Two workers on two cores").
func spinFor(workers int) time.Duration {
	if workers <= runtime.GOMAXPROCS(0) {
		return spinBudget
	}
	return 0
}

// gate is a sequence barrier: signal advances a counter, and wait(n)
// returns once the counter has reached n. A waiter first polls the counter
// for up to spin, yielding the processor between loads, then parks on a
// condition variable; the signaller takes the lock only when a waiter is
// parked. Every wake-up re-checks the counter, so a signal meant for one
// round can never release the wait for the next.
//
// Lost wake-ups are ruled out by the order of two sequentially consistent
// atomics: a waiter announces itself in parked before its last look at
// seq, and a signaller advances seq before it looks at parked. Either the
// waiter sees the new seq, or the signaller sees the waiter and then
// takes the lock, which it gets only once the waiter sleeps in Wait.
type gate struct {
	seq    atomic.Uint64
	parked atomic.Int32
	spin   time.Duration
	mu     sync.Mutex
	cond   sync.Cond
}

func newGate(spin time.Duration) *gate {
	g := &gate{spin: spin}
	g.cond.L = &g.mu
	return g
}

// signal advances the sequence by one and wakes any parked waiter.
func (g *gate) signal() {
	g.seq.Add(1)
	if g.parked.Load() > 0 {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// wait blocks until the sequence has reached n. Everything written before
// the signal that took the sequence to n is visible to the caller.
func (g *gate) wait(n uint64) {
	if g.seq.Load() >= n {
		return
	}
	if g.spin > 0 {
		for start := time.Now(); time.Since(start) < g.spin; {
			runtime.Gosched()
			if g.seq.Load() >= n {
				return
			}
		}
	}
	g.mu.Lock()
	g.parked.Add(1)
	for g.seq.Load() < n {
		g.cond.Wait()
	}
	g.parked.Add(-1)
	g.mu.Unlock()
}
