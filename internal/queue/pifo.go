package queue

import (
	"container/heap"
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// RankFunc assigns a scheduling rank to a packet at enqueue time; lower
// ranks dequeue first. The paper's "PIFO Ideal" baseline ranks on
// ground truth (benign before malicious); ACC-Turbo's deployable
// schedulers rank on cluster statistics instead.
type RankFunc func(now eventsim.Time, p *packet.Packet) int64

// PIFO is an idealized push-in first-out queue: packets dequeue in rank
// order, and when the buffer is full the worst-ranked resident packet
// is pushed out to admit a better-ranked arrival. Ties preserve arrival
// order.
type PIFO struct {
	capBytes int
	bytes    int
	rank     RankFunc
	seq      uint64
	h        pifoHeap

	// worstIdx caches h.worstIndex() between heap mutations. The
	// sustained-overload tail-drop path (the arrival loses to the
	// current worst) mutates nothing, so back-to-back full-buffer drops
	// reuse the cache and cost O(1) instead of a leaf scan each.
	worstIdx   int
	worstValid bool
	pushedOut  func(now eventsim.Time, p *packet.Packet) // see OnPushOut
}

type pifoItem struct {
	p    *packet.Packet
	rank int64
	seq  uint64
}

// pifoHeap is a min-heap on (rank, seq).
type pifoHeap []pifoItem

func (h pifoHeap) Len() int { return len(h) }
func (h pifoHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].seq < h[j].seq
}
func (h pifoHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pifoHeap) Push(x any)   { *h = append(*h, x.(pifoItem)) }
func (h *pifoHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h pifoHeap) worstIndex() int {
	// The worst element of a min-heap is one of the leaves.
	worst := len(h) / 2
	for i := worst + 1; i < len(h); i++ {
		if h.Less(worst, i) {
			worst = i
		}
	}
	return worst
}

// NewPIFO builds a PIFO with the given byte capacity and ranking
// function.
func NewPIFO(capacityBytes int, rank RankFunc) *PIFO {
	if capacityBytes <= 0 {
		panic(fmt.Sprintf("queue: PIFO capacity %d must be positive", capacityBytes))
	}
	if rank == nil {
		panic("queue: nil rank function")
	}
	return &PIFO{capBytes: capacityBytes, rank: rank}
}

// OnPushOut sets the one sink of push-outs: Enqueue's answer reports the
// arrival, not the resident packet evicted to admit it. The port that
// drives the PIFO sets it; without a sink a push-out goes unreported.
func (q *PIFO) OnPushOut(fn func(now eventsim.Time, p *packet.Packet)) { q.pushedOut = fn }

// worst returns the index of the worst-ranked resident item, cached
// until the next heap mutation.
func (q *PIFO) worst() int {
	if !q.worstValid {
		q.worstIdx = q.h.worstIndex()
		q.worstValid = true
	}
	return q.worstIdx
}

// Enqueue implements Qdisc. When full, the worst-ranked packets are
// evicted as long as the arrival ranks strictly better; otherwise the
// arrival is dropped.
func (q *PIFO) Enqueue(now eventsim.Time, p *packet.Packet) DropReason {
	r := q.rank(now, p)
	for q.bytes+p.Size() > q.capBytes {
		if len(q.h) == 0 {
			// Packet larger than the whole buffer.
			return DropTail
		}
		wi := q.worst()
		if q.h[wi].rank <= r {
			// Arrival does not beat the current worst: tail-drop it.
			return DropTail
		}
		victim := q.h[wi]
		heap.Remove(&q.h, wi)
		q.worstValid = false
		q.bytes -= victim.p.Size()
		if q.pushedOut != nil {
			q.pushedOut(now, victim.p)
		}
	}
	heap.Push(&q.h, pifoItem{p: p, rank: r, seq: q.seq})
	q.worstValid = false
	q.seq++
	q.bytes += p.Size()
	return DropNone
}

// Dequeue implements Qdisc: the lowest-ranked packet leaves first.
func (q *PIFO) Dequeue(eventsim.Time) *packet.Packet {
	if len(q.h) == 0 {
		return nil
	}
	it := heap.Pop(&q.h).(pifoItem)
	q.worstValid = false
	q.bytes -= it.p.Size()
	return it.p
}

// Len implements Qdisc.
func (q *PIFO) Len() int { return len(q.h) }

// Bytes implements Qdisc.
func (q *PIFO) Bytes() int { return q.bytes }
