package queue

import (
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// Classifier maps a packet to a priority-queue index. Queue 0 has the
// highest priority; larger indexes drain only when all smaller ones are
// empty (strict priority). ACC-Turbo's data plane supplies a classifier
// that assigns the packet to its cluster and looks the cluster up in the
// controller-installed cluster-to-queue mapping (core.Dataplane.Classify).
//
// Contract: the classifier should return an index in [0, n). The
// scheduler clamps out-of-range returns rather than dropping, but a
// classifier must not rely on that as routing policy — when a lookup has
// no answer (unknown cluster, stale mapping) it should fail closed to
// the lowest-priority queue itself, never default to queue 0.
type Classifier func(now eventsim.Time, p *packet.Packet) int

// Priority is a strict-priority scheduler over n tail-drop FIFO queues,
// modeling the Tofino traffic manager used by ACC-Turbo's prototype.
// Each queue has its own byte capacity, as on hardware.
type Priority struct {
	queues   []*FIFO
	classify Classifier
}

// NewPriority builds a strict-priority scheduler with n queues of
// perQueueBytes capacity each. classify must return an index in [0, n);
// out-of-range indexes are clamped, matching the defensive behaviour of
// a real traffic manager.
func NewPriority(n, perQueueBytes int, classify Classifier) *Priority {
	if n <= 0 {
		panic(fmt.Sprintf("queue: priority queue count %d must be positive", n))
	}
	if classify == nil {
		panic("queue: nil classifier")
	}
	p := &Priority{
		queues:   make([]*FIFO, n),
		classify: classify,
	}
	for i := range p.queues {
		p.queues[i] = NewFIFO(perQueueBytes)
	}
	return p
}

// Enqueue implements Qdisc: the classifier picks the queue, and the
// packet tail-drops if that queue is full.
func (pq *Priority) Enqueue(now eventsim.Time, p *packet.Packet) DropReason {
	i := pq.classify(now, p)
	if i < 0 {
		i = 0
	}
	if i >= len(pq.queues) {
		i = len(pq.queues) - 1
	}
	return pq.queues[i].Enqueue(now, p)
}

// Dequeue implements Qdisc: drain the highest-priority non-empty queue.
func (pq *Priority) Dequeue(now eventsim.Time) *packet.Packet {
	for _, q := range pq.queues {
		if p := q.Dequeue(now); p != nil {
			return p
		}
	}
	return nil
}

// Len implements Qdisc.
func (pq *Priority) Len() int {
	n := 0
	for _, q := range pq.queues {
		n += q.Len()
	}
	return n
}

// Bytes implements Qdisc.
func (pq *Priority) Bytes() int {
	n := 0
	for _, q := range pq.queues {
		n += q.Bytes()
	}
	return n
}
