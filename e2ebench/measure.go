package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCounters is a snapshot of the runtime's cumulative GC counters.
type gcCounters struct {
	allocBytes uint64
	cycles     uint64
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGC() gcCounters {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	return gcCounters{allocBytes: s[0].Value.Uint64(), cycles: s[1].Value.Uint64()}
}

func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak tracks the peak live heap: a finalizer-armed sentinel fires once
// after every GC cycle and reads the live heap that cycle marked, so no
// polling goroutine runs beside the simulation.
type heapPeak struct {
	peak    atomic.Uint64
	stopped atomic.Bool
	done    chan struct{} // closed by the last finalizer, once stopped
}

// gcSentinel holds a pointer so it is never packed by the tiny allocator,
// whose blocks may outlive the cycle that freed the sentinel.
type gcSentinel struct{ h *heapPeak }

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.reset()
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(&gcSentinel{h}, func(*gcSentinel) {
		h.observe(liveHeapBytes())
		if h.stopped.Load() {
			close(h.done)
			return
		}
		h.arm()
	})
}

func (h *heapPeak) observe(v uint64) {
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new observation window at the current live heap.
func (h *heapPeak) reset() { h.peak.Store(liveHeapBytes()) }

func (h *heapPeak) value() uint64 { return h.peak.Load() }

// stop disarms the sentinel and waits until its last finalizer has run. It
// collects until then: a finalizer racing with stop may arm one more
// sentinel after a collection has already finished.
func (h *heapPeak) stop() {
	h.stopped.Store(true)
	for {
		runtime.GC()
		select {
		case <-h.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// median returns the median of xs (the mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTailSamples is the fewest simulations for which a tail is reported:
// below it the highest percentile with tailBeyond samples beyond it would
// sit under the median.
const (
	tailBeyond     = 10
	minTailSamples = 2 * tailBeyond
)

// tail applies the rule "the highest percentile with at least ten samples
// beyond it": the value with exactly tailBeyond larger samples, and the
// percentile it sits at. ok is false when there are too few samples.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < minTailSamples {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}
