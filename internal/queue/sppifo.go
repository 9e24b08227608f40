package queue

import (
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// SPPIFO approximates a PIFO queue on top of strict-priority queues
// (Alcoz et al., "SP-PIFO: Approximating Push-In First-Out Behaviors
// using Strict-Priority Queues", NSDI 2020) — the mechanism the paper
// cites (§5.1, [24]) as the way to realize rank-based scheduling on
// commodity hardware.
//
// Each queue i carries an adaptive rank bound b_i (b_1 <= ... <= b_n,
// queue 1 = highest priority). An arriving packet with rank r scans
// from the lowest-priority queue upward and enters the first queue
// whose bound is <= r, raising that bound to r ("push-up"). If even
// the top queue's bound exceeds r, the packet enters the top queue and
// all bounds decrease by the overshoot ("push-down"), letting the
// mapping re-adapt to rank drift in either direction.
type SPPIFO struct {
	queues []*FIFO
	bounds []int64
	rank   RankFunc

	// Inversions counts dequeued packets whose rank was lower than the
	// highest rank dequeued before them — the SP-PIFO quality metric.
	Inversions uint64
	// PushUps and PushDowns count bound adaptations.
	PushUps, PushDowns uint64

	maxDequeued int64
	anyDequeued bool
}

// NewSPPIFO builds an SP-PIFO with n strict-priority queues of
// perQueueBytes each.
func NewSPPIFO(n, perQueueBytes int, rank RankFunc) *SPPIFO {
	if n <= 0 {
		panic(fmt.Sprintf("queue: SP-PIFO queue count %d must be positive", n))
	}
	if rank == nil {
		panic("queue: nil rank function")
	}
	s := &SPPIFO{
		queues: make([]*FIFO, n),
		bounds: make([]int64, n),
		rank:   rank,
	}
	for i := range s.queues {
		s.queues[i] = NewFIFO(perQueueBytes)
	}
	return s
}

// Enqueue implements Qdisc with the SP-PIFO mapping.
func (s *SPPIFO) Enqueue(now eventsim.Time, p *packet.Packet) DropReason {
	r := s.rank(now, p)
	n := len(s.queues)
	// Scan from the lowest-priority queue upward.
	for i := n - 1; i >= 1; i-- {
		if r >= s.bounds[i] {
			if res := s.queues[i].Enqueue(now, p); res != DropNone {
				return res
			}
			if r > s.bounds[i] {
				s.bounds[i] = r // push-up
				s.PushUps++
			}
			return DropNone
		}
	}
	// Top queue: push-down when the packet's rank undershoots.
	if res := s.queues[0].Enqueue(now, p); res != DropNone {
		return res
	}
	if r < s.bounds[0] {
		cost := s.bounds[0] - r
		for i := range s.bounds {
			s.bounds[i] -= cost
		}
		s.PushDowns++
	} else if r > s.bounds[0] {
		s.bounds[0] = r
		s.PushUps++
	}
	return DropNone
}

// Dequeue implements Qdisc, tracking rank inversions.
func (s *SPPIFO) Dequeue(now eventsim.Time) *packet.Packet {
	for _, q := range s.queues {
		if p := q.Dequeue(now); p != nil {
			r := s.rank(now, p)
			if s.anyDequeued && r < s.maxDequeued {
				s.Inversions++
			}
			if !s.anyDequeued || r > s.maxDequeued {
				s.maxDequeued = r
				s.anyDequeued = true
			}
			return p
		}
	}
	return nil
}

// Len implements Qdisc.
func (s *SPPIFO) Len() int {
	n := 0
	for _, q := range s.queues {
		n += q.Len()
	}
	return n
}

// Bytes implements Qdisc.
func (s *SPPIFO) Bytes() int {
	n := 0
	for _, q := range s.queues {
		n += q.Bytes()
	}
	return n
}
