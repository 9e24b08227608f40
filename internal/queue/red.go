package queue

import (
	"fmt"
	"math"
	"math/rand"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// RED's constants, the configuration used across the paper
// reproduction: Floyd and Jacobson's classic w_q = 0.002 and max_p = 0.1,
// with the early-drop region between 25 % and 75 % of the buffer. The
// float constants are typed float64, so 1-redWeight rounds as it would
// at run time.
const (
	// redMaxP is the drop probability when the average reaches the
	// upper threshold.
	redMaxP float64 = 0.1
	// redWeight is the EWMA weight w_q applied per arrival.
	redWeight float64 = 0.002
	// redMeanPacketSize calibrates the idle-time decay of the average:
	// how many "virtual" small packets could have been transmitted
	// while the queue sat empty.
	redMeanPacketSize = 500
	// redSeed makes the probabilistic dropper deterministic.
	redSeed = 1
)

// RED implements Random Early Detection over an internal FIFO.
//
// Enqueue answers DropEarly for a probabilistic or forced drop and
// DropTail when the FIFO underneath is full. The port accounts that
// answer, and the classic ACC agent (internal/acc) reads the headers of
// those drops off the port to infer aggregates.
type RED struct {
	fifo *FIFO
	// minTh and maxTh bound the early-drop region of the average queue
	// size (bytes); idleRate is the drain rate (bytes/second) of the
	// idle-time decay.
	minTh, maxTh float64
	idleRate     float64
	rng          *rand.Rand

	avg       float64 // EWMA of the queue size in bytes
	count     int     // packets since last early drop
	idleSince eventsim.Time
	idle      bool
}

// NewRED builds a RED queue (Floyd and Jacobson, 1993) over a
// capacityBytes FIFO whose idle periods drain at idleRate bytes/second.
// Thresholds are in bytes, so the discipline composes with the byte-
// capacity FIFO underneath.
func NewRED(capacityBytes int, idleRate float64) *RED {
	if capacityBytes < 4 {
		panic(fmt.Sprintf("queue: RED capacity %d leaves no early-drop region", capacityBytes))
	}
	return &RED{
		fifo:     NewFIFO(capacityBytes),
		minTh:    float64(capacityBytes / 4),
		maxTh:    float64(capacityBytes * 3 / 4),
		idleRate: idleRate,
		rng:      rand.New(rand.NewSource(redSeed)),
		idle:     true,
	}
}

// Enqueue implements Qdisc with RED early-drop semantics.
func (r *RED) Enqueue(now eventsim.Time, p *packet.Packet) DropReason {
	r.updateAverage(now)

	switch {
	case r.avg < r.minTh:
		r.count = -1
	case r.avg >= r.maxTh:
		r.count = 0
		return DropEarly
	default:
		r.count++
		pb := r.dropProbability()
		pa := pb
		if r.count > 0 && r.count*int(math.Ceil(1/pb)) < math.MaxInt32 {
			den := 1 - float64(r.count)*pb
			if den <= 0 {
				pa = 1
			} else {
				pa = pb / den
			}
		}
		if r.rng.Float64() < pa {
			r.count = 0
			return DropEarly
		}
	}

	if res := r.fifo.Enqueue(now, p); res != DropNone {
		return res
	}
	r.idle = false
	return DropNone
}

// dropProbability returns p_b for an average between the thresholds.
func (r *RED) dropProbability() float64 {
	return redMaxP * (r.avg - r.minTh) / (r.maxTh - r.minTh)
}

// updateAverage applies the EWMA update, including idle-time decay.
func (r *RED) updateAverage(now eventsim.Time) {
	q := float64(r.fifo.Bytes())
	if r.idle && r.idleRate > 0 {
		// While idle, pretend m small packets drained.
		idleSec := (now - r.idleSince).Seconds()
		m := idleSec * r.idleRate / redMeanPacketSize
		r.avg *= math.Pow(1-redWeight, m)
		r.idle = false
	}
	r.avg = (1-redWeight)*r.avg + redWeight*q
}

// Dequeue implements Qdisc.
func (r *RED) Dequeue(now eventsim.Time) *packet.Packet {
	p := r.fifo.Dequeue(now)
	if r.fifo.Len() == 0 && !r.idle {
		r.idle = true
		r.idleSince = now
	}
	return p
}

// Len implements Qdisc.
func (r *RED) Len() int { return r.fifo.Len() }

// Bytes implements Qdisc.
func (r *RED) Bytes() int { return r.fifo.Bytes() }
