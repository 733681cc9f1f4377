package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateWaitNeverReturnsEarly drives two gates the way the engine does:
// one side signals a round on start and waits for its answer on done, the
// other waits on start, answers, and signals done. Each side signals at a
// random delay after the other began to wait, just below or just above the
// spin budget, so waits end both by polling and by parking, and many
// signals arrive while the waiter is on its way from one to the other. A
// wait may never return before the signal of its own round. A gate that
// releases a parked waiter with a one-slot channel token, and does not
// re-check the sequence, fails here under -race: a token sent for a waiter
// that saw the sequence move before it blocked is left over, and releases
// the next round's wait.
func TestGateWaitNeverReturnsEarly(t *testing.T) {
	// The gates poll for a tenth of spinBudget, so that many more rounds
	// straddle the budget per second of test time.
	const spin = spinBudget / 10
	const rounds = 20000
	delays := []time.Duration{0, spin / 2, spin * 9 / 10, spin, spin, spin, spin * 11 / 10, spin * 3 / 2}
	t0 := time.Now()
	start, done := newGate(spin), newGate(spin)
	var asked, answered atomic.Uint64 // the rounds signalled so far, on each gate
	var parkedAtSignal atomic.Int64   // signals that found their waiter parked
	helperWaits, coordinatorWaits := new(waitClock), new(waitClock)
	errs := make(chan string, 1)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	go func() {
		r := rand.New(rand.NewSource(2))
		for n := uint64(1); n <= rounds; n++ {
			helperWaits.publish(n, t0)
			start.wait(n)
			if got := asked.Load(); got < n {
				fail(fmt.Sprintf("helper: wait for round %d returned after round %d's signal", n, got))
			}
			coordinatorWaits.sleepPast(n, t0, delay(r, delays))
			answered.Store(n)
			if done.parked.Load() > 0 {
				parkedAtSignal.Add(1)
			}
			done.signal()
		}
	}()
	r := rand.New(rand.NewSource(1))
	for n := uint64(1); n <= rounds; n++ {
		helperWaits.sleepPast(n, t0, delay(r, delays))
		asked.Store(n)
		if start.parked.Load() > 0 {
			parkedAtSignal.Add(1)
		}
		start.signal()
		coordinatorWaits.publish(n, t0)
		done.wait(n)
		if got := answered.Load(); got < n {
			fail(fmt.Sprintf("coordinator: wait for round %d returned after round %d's answer", n, got))
		}
	}
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if p := start.parked.Load() + done.parked.Load(); p != 0 {
		t.Fatalf("%d waiters still counted as parked", p)
	}
	// Both ways of waiting must have run: some signals found the waiter
	// parked, and the rest found it polling.
	if p := parkedAtSignal.Load(); p == 0 || p == 2*rounds {
		t.Fatalf("%d of %d signals found their waiter parked; the delays no longer straddle the spin budget", p, 2*rounds)
	}
	t.Logf("%d of %d signals found their waiter parked", parkedAtSignal.Load(), 2*rounds)
}

// delay draws one of delays, jittered by up to ±0.3 µs when nonzero.
func delay(r *rand.Rand, delays []time.Duration) time.Duration {
	d := delays[r.Intn(len(delays))]
	if d > 0 {
		d += time.Duration(r.Intn(600)) - 300
	}
	return d
}

// waitClock publishes when one side of the stress test began to wait for
// a round, so that the other side can time its signal against it.
type waitClock struct {
	at    atomic.Int64 // since t0
	round atomic.Uint64
}

func (c *waitClock) publish(round uint64, t0 time.Time) {
	c.at.Store(int64(time.Since(t0)))
	c.round.Store(round)
}

// sleepPast polls until d has passed since the wait for round began. It
// yields between polls, so the test also runs at GOMAXPROCS 1.
func (c *waitClock) sleepPast(round uint64, t0 time.Time, d time.Duration) {
	for c.round.Load() < round {
		runtime.Gosched()
	}
	for end := time.Duration(c.at.Load()) + d; time.Since(t0) < end; {
		runtime.Gosched()
	}
}
