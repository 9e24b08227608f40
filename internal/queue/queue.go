// Package queue implements the queueing disciplines used by the
// ACC-Turbo simulator: tail-drop FIFO, Random Early Detection (RED),
// strict-priority multi-queue scheduling, an idealized PIFO (push-in
// first-out) queue, and a token-bucket rate limiter.
//
// All disciplines implement Qdisc so the switch model in
// internal/netsim can drive any of them interchangeably.
package queue

import (
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// DropReason explains why a packet was not enqueued.
type DropReason uint8

// Drop reasons.
const (
	// DropNone means the packet was accepted.
	DropNone DropReason = iota
	// DropTail means the queue was full.
	DropTail
	// DropEarly means RED dropped the packet probabilistically.
	DropEarly
	// DropPushOut means a PIFO evicted the packet to admit a
	// higher-priority one.
	DropPushOut
	// DropPolicer means a rate limiter or filter rejected the packet.
	DropPolicer
	// DropLinkDown means the output port's link was down (failed or
	// fault-injected) when the packet arrived. Kept distinct from
	// DropTail so fault-induced loss never masquerades as congestion
	// loss in the port's accounting.
	DropLinkDown
)

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropTail:
		return "tail"
	case DropEarly:
		return "early"
	case DropPushOut:
		return "push-out"
	case DropPolicer:
		return "policer"
	case DropLinkDown:
		return "link-down"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Qdisc is a queueing discipline attached to an output port.
type Qdisc interface {
	// Enqueue offers a packet at virtual time now. It returns DropNone
	// if the packet was accepted, or the reason it was rejected: the
	// answer is the whole drop report for the arrival, and the port
	// accounts it.
	Enqueue(now eventsim.Time, p *packet.Packet) DropReason
	// Dequeue removes and returns the next packet to transmit, or nil
	// if the discipline is empty.
	Dequeue(now eventsim.Time) *packet.Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int
}

// Compile-time interface checks: every discipline must satisfy Qdisc.
var (
	_ Qdisc = (*FIFO)(nil)
	_ Qdisc = (*RED)(nil)
	_ Qdisc = (*Priority)(nil)
	_ Qdisc = (*PIFO)(nil)
	_ Qdisc = (*SPPIFO)(nil)
	_ Qdisc = (*AIFO)(nil)
)

// ring is a growable FIFO ring buffer of packets.
type ring struct {
	buf        []*packet.Packet
	head, size int
}

func (r *ring) len() int { return r.size }

func (r *ring) push(p *packet.Packet) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)%len(r.buf)] = p
	r.size++
}

func (r *ring) pop() *packet.Packet {
	if r.size == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return p
}

func (r *ring) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 16
	}
	buf := make([]*packet.Packet, n)
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}

// FIFO is a tail-drop first-in first-out queue bounded in bytes.
type FIFO struct {
	capBytes int
	bytes    int
	q        ring
}

// NewFIFO returns a FIFO with the given byte capacity. A non-positive
// capacity panics: an unbounded queue hides every congestion signal the
// simulated experiments depend on.
func NewFIFO(capacityBytes int) *FIFO {
	if capacityBytes <= 0 {
		panic(fmt.Sprintf("queue: FIFO capacity %d must be positive", capacityBytes))
	}
	return &FIFO{capBytes: capacityBytes}
}

// Capacity returns the configured byte capacity.
func (f *FIFO) Capacity() int { return f.capBytes }

// Enqueue implements Qdisc.
func (f *FIFO) Enqueue(_ eventsim.Time, p *packet.Packet) DropReason {
	if f.bytes+p.Size() > f.capBytes {
		return DropTail
	}
	f.q.push(p)
	f.bytes += p.Size()
	return DropNone
}

// Dequeue implements Qdisc.
func (f *FIFO) Dequeue(eventsim.Time) *packet.Packet {
	p := f.q.pop()
	if p != nil {
		f.bytes -= p.Size()
	}
	return p
}

// Len implements Qdisc.
func (f *FIFO) Len() int { return f.q.len() }

// Bytes implements Qdisc.
func (f *FIFO) Bytes() int { return f.bytes }
