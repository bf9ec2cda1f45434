package main

import (
	"container/heap"
	"math"
	"runtime"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by tens
// of percent over tens of seconds. Every end-to-end time is therefore
// scaled by a calibration kernel timed on both sides of it: a sample s
// becomes s × refKernelSeconds / kernel, the time the run would have taken
// on a host where the kernel takes refKernelSeconds (about its median on
// the 2-vCPU Intel Xeon VM the bounds were set on). The kernel is a small
// discrete-event simulation of its own, allocating a pointer-linked event
// heap much as the simulator does, so it slows down when the simulator
// does, and it shares no code with the repository, so a change to the
// simulator never moves it.
const refKernelSeconds = 0.02

// kernelEvents sizes one kernel call to about refKernelSeconds.
const kernelEvents = 100_000

type kernelEvent struct {
	at     float64
	queue  int
	finish bool
}

type kernelHeap []*kernelEvent

func (h kernelHeap) Len() int           { return len(h) }
func (h kernelHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h kernelHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *kernelHeap) Push(x any)        { *h = append(*h, x.(*kernelEvent)) }
func (h *kernelHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// kernel simulates 64 single-server FIFO queues under Poisson arrivals
// for n events and returns the total waiting time.
func kernel(n int) float64 {
	const queues = 64
	x := uint64(0x9e3779b97f4a7c15)
	exp := func(mean float64) float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return -mean * math.Log(float64(x>>11+1)/(1<<53))
	}
	h := &kernelHeap{}
	waiting := make([][]float64, queues)
	var total float64
	for q := 0; q < queues; q++ {
		heap.Push(h, &kernelEvent{at: exp(1), queue: q})
	}
	for i := 0; i < n; i++ {
		e := heap.Pop(h).(*kernelEvent)
		q := e.queue
		if !e.finish {
			waiting[q] = append(waiting[q], e.at)
			heap.Push(h, &kernelEvent{at: e.at + exp(1.2), queue: q})
			if len(waiting[q]) == 1 {
				heap.Push(h, &kernelEvent{at: e.at + exp(1), queue: q, finish: true})
			}
			continue
		}
		total += e.at - waiting[q][0]
		waiting[q] = waiting[q][1:]
		if len(waiting[q]) > 0 {
			heap.Push(h, &kernelEvent{at: e.at + exp(1), queue: q, finish: true})
		}
	}
	return total
}

// localKernel collects garbage, then times one kernel call in this
// process.
func localKernel() float64 {
	runtime.GC()
	t0 := time.Now()
	sink += kernel(kernelEvents)
	return time.Since(t0).Seconds()
}

// kernelReading is the median of three timings of a kernel call.
func kernelReading(timeKernel func() float64) float64 {
	var k [3]float64
	for i := range k {
		k[i] = timeKernel()
	}
	return median(k[:])
}

// timeSample is a host time waiting for the reading that follows it.
type timeSample struct {
	metric  string
	seconds float64
}

// calibrator scales every time sample by the kernel readings taken on
// both sides of it. A measuring loop reads before its first sample and
// after its last; the kernel runs wherever the timed work runs (in this
// process, or in the daemon).
type calibrator struct {
	// seconds holds every reading, in order.
	seconds []float64
	pending []timeSample
}

// addTime queues a host time for a metric until the next read.
func (c *calibrator) addTime(metric string, seconds float64) {
	c.pending = append(c.pending, timeSample{metric, seconds})
}

// read takes a kernel reading and adds the queued samples to o, each
// scaled by refKernelSeconds over the mean of this reading and the one
// before it.
func (c *calibrator) read(o *outcome, timeKernel func() float64) {
	m := kernelReading(timeKernel)
	if len(c.pending) > 0 {
		f := refKernelSeconds / ((c.seconds[len(c.seconds)-1] + m) / 2)
		for _, s := range c.pending {
			o.add(s.metric, s.seconds*f)
		}
		c.pending = c.pending[:0]
	}
	c.seconds = append(c.seconds, m)
}
