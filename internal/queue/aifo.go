package queue

import (
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// AIFO approximates a PIFO with a single FIFO queue plus rank-aware
// admission control (Yu et al., "Programmable Packet Scheduling with a
// Single Queue", SIGCOMM 2021) — the other scheduler realization the
// paper cites (§5.1, [56]).
//
// Arriving packets are admitted iff their rank's quantile within a
// sliding window of recent ranks does not exceed the queue's remaining
// headroom: with the queue c/C full, a packet is admitted when
//
//	quantile(r) <= (1/(1-k)) * (C-c)/C
//
// where k in [0,1) is a burst-tolerance parameter. Low-rank (high
// priority) packets are almost always admitted; high-rank packets are
// admitted only while the queue is empty enough. Admitted packets
// drain in FIFO order, so no PIFO-style reordering machinery is
// needed.
type AIFO struct {
	fifo   *FIFO
	rank   RankFunc
	window []int64
	wpos   int
	wfull  bool
	k      float64

	// AdmissionDrops counts packets rejected by the quantile check.
	AdmissionDrops uint64
}

// NewAIFO builds an AIFO queue with the given capacity, rank function,
// sliding-window size, and burst parameter k in [0, 1).
func NewAIFO(capacityBytes int, windowSize int, k float64, rank RankFunc) *AIFO {
	if windowSize <= 0 {
		panic(fmt.Sprintf("queue: AIFO window %d must be positive", windowSize))
	}
	if k < 0 || k >= 1 {
		panic(fmt.Sprintf("queue: AIFO k %v out of [0,1)", k))
	}
	if rank == nil {
		panic("queue: nil rank function")
	}
	return &AIFO{
		fifo:   NewFIFO(capacityBytes),
		rank:   rank,
		window: make([]int64, windowSize),
		k:      k,
	}
}

// quantile returns the fraction of window entries strictly below r.
func (a *AIFO) quantile(r int64) float64 {
	n := len(a.window)
	if !a.wfull {
		n = a.wpos
	}
	if n == 0 {
		return 0
	}
	below := 0
	for i := 0; i < n; i++ {
		if a.window[i] < r {
			below++
		}
	}
	return float64(below) / float64(n)
}

func (a *AIFO) observe(r int64) {
	a.window[a.wpos] = r
	a.wpos++
	if a.wpos == len(a.window) {
		a.wpos = 0
		a.wfull = true
	}
}

// Enqueue implements Qdisc with quantile-based admission.
func (a *AIFO) Enqueue(now eventsim.Time, p *packet.Packet) DropReason {
	r := a.rank(now, p)
	q := a.quantile(r)
	a.observe(r)
	headroom := float64(a.fifo.Capacity()-a.fifo.Bytes()) / float64(a.fifo.Capacity())
	if q > headroom/(1-a.k) {
		a.AdmissionDrops++
		return DropEarly
	}
	return a.fifo.Enqueue(now, p)
}

// Dequeue implements Qdisc.
func (a *AIFO) Dequeue(now eventsim.Time) *packet.Packet { return a.fifo.Dequeue(now) }

// Len implements Qdisc.
func (a *AIFO) Len() int { return a.fifo.Len() }

// Bytes implements Qdisc.
func (a *AIFO) Bytes() int { return a.fifo.Bytes() }
