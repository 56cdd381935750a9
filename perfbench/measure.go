package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Runtime metric names read around every round.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mLiveHeap   = "/gc/heap/live:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// runtimeSample is one read of the runtime counters a round is charged.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	procCPU    time.Duration // user+sys from getrusage
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		procCPU:    processCPU(),
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakSampler polls the live heap (as marked by the last GC) and the
// goroutine count while a round runs, keeping the maxima.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	heap uint64
	gor  int
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	p.sample()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.sample()
			}
		}
	}()
	return p
}

func (p *peakSampler) sample() {
	s := []metrics.Sample{{Name: mLiveHeap}}
	metrics.Read(s)
	g := runtime.NumGoroutine()
	p.mu.Lock()
	p.heap = max(p.heap, s[0].Value.Uint64())
	p.gor = max(p.gor, g)
	p.mu.Unlock()
}

// finish stops the sampler, waits for it, and returns the peaks.
func (p *peakSampler) finish() (heapBytes uint64, goroutines int) {
	close(p.stop)
	<-p.done
	p.sample()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heap, p.gor
}

// roundCost is what one round cost the process.
type roundCost struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	heapPeak   uint64
	goroutines int
	gcCycles   uint64
	gcCPUFrac  float64
}

// measureRound collects garbage left by earlier work, then runs fn and
// charges it wall time, process CPU, bytes allocated, peak live heap and
// GC activity.
func measureRound(fn func() error) (roundCost, error) {
	runtime.GC()
	before := readRuntime()
	ps := startPeakSampler()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	heap, gor := ps.finish()
	after := readRuntime()
	c := roundCost{
		wall:       wall,
		cpu:        after.procCPU - before.procCPU,
		allocBytes: after.allocBytes - before.allocBytes,
		heapPeak:   heap,
		goroutines: gor,
		gcCycles:   after.gcCycles - before.gcCycles,
	}
	if d := after.totalCPU - before.totalCPU; d > 0 {
		c.gcCPUFrac = (after.gcCPU - before.gcCPU) / d
	}
	return c, err
}

// median of the values (0 for none).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile by linear interpolation between order statistics (0 for none).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
