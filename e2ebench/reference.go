package main

import (
	"container/heap"
	"time"
)

// The reference kernel measures how fast the host runs right now. On a
// shared host the same pass runs up to 1.5x slower while neighbours load the
// machine, in spells that last from seconds to minutes, so raw seconds of
// runs made minutes apart differ by more than any change worth gating. The
// kernel is a fixed discrete-event loop written against the standard library
// only: a pointer heap, a map of per-key state and an allocation per event,
// the same mix of work as the simulator's kernel. It runs beside every pass,
// and the gated time metrics are pass time divided by kernel time. Only an
// edit of this file changes the kernel's work, so any other change that
// moves the ratio moved the program.

// refEvents is the kernel's size: about 10 ms on a 2-vCPU Xeon VM.
const (
	refEvents = 25_000
	refKeys   = 4096
	refReps   = 5 // kernel runs per probe; the probe takes their medians
)

type refEvent struct {
	at      uint64
	key     uint32
	payload [4]uint64
}

type refState struct{ n, last uint64 }

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refSink keeps the kernel's result live.
var refSink uint64

// refKernel runs the fixed event loop once and returns its checksum.
func refKernel() uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	q := make(refQueue, 0, refKeys)
	state := make(map[uint32]*refState, refKeys)
	for range refKeys {
		r := next()
		q = append(q, &refEvent{at: r >> 44, key: uint32(r) % refKeys})
	}
	heap.Init(&q)
	var sum uint64
	for range refEvents {
		e := heap.Pop(&q).(*refEvent)
		s := state[e.key]
		if s == nil {
			s = &refState{}
			state[e.key] = s
		}
		s.n++
		s.last = e.at
		sum += e.at ^ s.n ^ e.payload[0]
		r := next()
		heap.Push(&q, &refEvent{at: e.at + r>>52 + 1, key: uint32(r) % refKeys, payload: [4]uint64{sum}})
	}
	return sum
}

// probe is one measurement of the host: the median wall and CPU time of
// refReps kernel runs.
type probe struct{ wall, cpu float64 }

func probeHost() probe {
	var walls, cpus []float64
	for range refReps {
		cpu0, t0 := cpuTime(), time.Now()
		refSink += refKernel()
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
	}
	return probe{median(walls), median(cpus)}
}

// refSmooth is how many probes on each side of a stretch join its estimate.
// A probe is short next to a simulation, so one probe reads the host's
// second-to-second jitter as well as its speed; the mean of the probes
// within a few seconds reads the speed.
const refSmooth = 2

// stretches returns the host speed over each stretch between consecutive
// probes of a run: the mean of the probes from refSmooth before the stretch
// to refSmooth after it, fewer at the ends of the run.
func stretches(probes []probe) []probe {
	var each []probe
	for j := 0; j+1 < len(probes); j++ {
		each = append(each, meanProbe(probes[max(0, j-refSmooth):min(len(probes), j+2+refSmooth)]))
	}
	return each
}

// meanProbe is the mean of ps.
func meanProbe(ps []probe) probe {
	var m probe
	for _, p := range ps {
		m.wall += p.wall / float64(len(ps))
		m.cpu += p.cpu / float64(len(ps))
	}
	return m
}
