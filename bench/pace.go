package main

import (
	"container/heap"
	"math"
	"sync"
	"time"
)

// The benchmark host is a share of a machine others use at the same time,
// and its speed drifts: back-to-back full-suite runs of one configuration
// take anywhere from 0.6 to 1.9 s as the neighbours' load comes and goes,
// in swings that last minutes. Raw times measure the host as much as the
// program. A run therefore paces itself: after each set-up, and between
// operations about once a second while it measures, it stops to time a
// fixed reference computation, the pace kernel, on every lane at once, and
// it reports its end-to-end times as they would read on a host where the
// kernel takes paceNominal. A change to the program moves them; a change in
// the host's speed, which slows the kernel and the program alike, mostly
// does not. The raw times are reported beside them, under detail.

// paceNominal is the pace kernel's time on the reference host, the host
// the end-to-end times are expressed on.
const paceNominal = 100 * time.Millisecond

// paceEvery is how often a workload with concurrent clients pauses them to
// take a pace sample. Sequential workloads take one after every operation.
const paceEvery = time.Second

// pacer runs the pace kernel. Its memory tables are allocated, and touched
// once, up front, so a timed run never pays their page faults.
type pacer struct {
	events int
	tables [workers][]float64
}

func newPacer(events int) *pacer {
	p := &pacer{events: events}
	for i := range p.tables {
		p.tables[i] = make([]float64, 1<<20) // 8 MiB
	}
	p.run()
	return p
}

// run times the kernel on every lane at once.
func (p *pacer) run() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for lane := range p.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paceSink[lane] = paceKernel(uint64(lane), p.events, p.tables[lane])
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// paceSink keeps the kernel's results alive.
var paceSink [workers]float64

// paceEvent is one entry of the kernel's event heap.
type paceEvent struct {
	at   float64
	lane int
}

type paceHeap []paceEvent

func (h paceHeap) Len() int           { return len(h) }
func (h paceHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h paceHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *paceHeap) Push(x any)        { *h = append(*h, x.(paceEvent)) }
func (h *paceHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// paceNode is a short-lived heap object of the allocation phase.
type paceNode struct {
	next *paceNode
	pad  [6]float64
	f    func(float64) float64
}

// paceKernel is one lane's share of the pace kernel, in the three phases a
// simulation shard spends its time in: an event heap driving updates of a
// 2 MiB state table, short-lived closures allocated into a ring of live
// nodes, and scattered reads and writes over an 8 MiB table. Its work is
// fixed by events; its time is the host's.
func paceKernel(seed uint64, events int, table []float64) float64 {
	x := 88172645463325252 + seed
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	uniform := func() float64 { return float64(next()>>11) / (1 << 53) }
	acc := 0.0

	state := make([]float64, 1<<18)
	h := &paceHeap{}
	for i := 0; i < 256; i++ {
		heap.Push(h, paceEvent{uniform(), i})
	}
	sums := map[int]float64{}
	for i := 0; i < events; i++ {
		e := heap.Pop(h).(paceEvent)
		j := int(x>>20) & (len(state) - 1)
		state[j] = state[j]*0.999 + math.Exp(-e.at*0.001)
		sums[j&4095] += state[j]
		acc += state[j]
		heap.Push(h, paceEvent{e.at + uniform(), e.lane})
	}

	ring := make([]*paceNode, 4096)
	for i := 0; i < 2*events; i++ {
		c := float64(next() >> 40)
		n := &paceNode{f: func(y float64) float64 { return y*0.5 + c }}
		j := int(x>>20) & (len(ring) - 1)
		n.next = ring[(j+1)&(len(ring)-1)]
		ring[j] = n
		if n.next != nil {
			acc += n.next.f(acc) * 1e-9
		}
	}

	for i := 0; i < 15*events; i++ {
		j := int(next()>>20) & (len(table) - 1)
		table[j]++
		acc += table[(j*7)&(len(table)-1)]
	}
	return acc + float64(len(sums))
}
