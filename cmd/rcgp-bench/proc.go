package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procDelta is the process-wide cost of a traced phase.
type procDelta struct {
	cpu                 time.Duration
	gcCycles            uint32
	gcPause             time.Duration
	mallocs, allocBytes uint64
	heapPeak            float64
}

// startProbe samples the process around a traced phase: CPU time, GC
// and allocation counters at both ends, and the live heap every 25 ms
// until the returned stop function is called.
func startProbe() (stop func() procDelta) {
	cpu0 := cpuTime()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	quit, peak := make(chan struct{}), make(chan float64)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var hi float64
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			hi = math.Max(hi, float64(sample[0].Value.Uint64()))
			select {
			case <-quit:
				peak <- hi
				return
			case <-t.C:
			}
		}
	}()
	return func() procDelta {
		close(quit)
		var end runtime.MemStats
		runtime.ReadMemStats(&end)
		return procDelta{
			cpu:        cpuTime() - cpu0,
			gcCycles:   end.NumGC - ms0.NumGC,
			gcPause:    time.Duration(end.PauseTotalNs - ms0.PauseTotalNs),
			mallocs:    end.Mallocs - ms0.Mallocs,
			allocBytes: end.TotalAlloc - ms0.TotalAlloc,
			heapPeak:   <-peak,
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
