package queue

import (
	"fmt"
	"math"
	"math/rand"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// REDConfig parameterizes a Random Early Detection queue following
// Floyd and Jacobson (1993). Thresholds are expressed in bytes so the
// discipline composes with the byte-capacity FIFO underneath.
type REDConfig struct {
	// CapacityBytes bounds the physical queue.
	CapacityBytes int
	// MinThreshold and MaxThreshold bound the early-drop region of the
	// EWMA average queue size (bytes).
	MinThreshold int
	MaxThreshold int
	// MaxP is the drop probability when the average reaches
	// MaxThreshold.
	MaxP float64
	// Weight is the EWMA weight w_q applied per arrival.
	Weight float64
	// MeanPacketSize calibrates the idle-time decay of the average
	// (how many "virtual" small packets could have been transmitted
	// while the queue sat empty).
	MeanPacketSize int
	// IdleRate is the drain rate in bytes/second used for idle decay.
	IdleRate float64
	// Seed makes the probabilistic dropper deterministic.
	Seed int64
}

// DefaultREDConfig returns the configuration used across the paper
// reproduction: thresholds at 25% and 75% of capacity, max_p = 0.1, and
// the classic w_q = 0.002.
func DefaultREDConfig(capacityBytes int, idleRate float64) REDConfig {
	return REDConfig{
		CapacityBytes:  capacityBytes,
		MinThreshold:   capacityBytes / 4,
		MaxThreshold:   capacityBytes * 3 / 4,
		MaxP:           0.1,
		Weight:         0.002,
		MeanPacketSize: 500,
		IdleRate:       idleRate,
		Seed:           1,
	}
}

// RED implements Random Early Detection over an internal FIFO.
//
// Every early or forced drop is reported through OnDrop, which is how
// the classic ACC agent (internal/acc) observes the headers of dropped
// packets to infer aggregates.
type RED struct {
	cfg    REDConfig
	fifo   *FIFO
	rng    *rand.Rand
	onDrop []DropFunc

	avg       float64 // EWMA of the queue size in bytes
	count     int     // packets since last early drop
	idleSince eventsim.Time
	idle      bool

	// Stats since construction.
	Arrivals   uint64
	EarlyDrops uint64
	TailDrops  uint64
}

// NewRED builds a RED queue from cfg, validating the threshold
// ordering.
func NewRED(cfg REDConfig) *RED {
	if cfg.CapacityBytes <= 0 {
		panic("queue: RED capacity must be positive")
	}
	if cfg.MinThreshold <= 0 || cfg.MaxThreshold <= cfg.MinThreshold {
		panic(fmt.Sprintf("queue: RED thresholds invalid: min=%d max=%d", cfg.MinThreshold, cfg.MaxThreshold))
	}
	if cfg.MaxP <= 0 || cfg.MaxP > 1 {
		panic(fmt.Sprintf("queue: RED MaxP %v out of (0,1]", cfg.MaxP))
	}
	if cfg.Weight <= 0 || cfg.Weight > 1 {
		panic(fmt.Sprintf("queue: RED weight %v out of (0,1]", cfg.Weight))
	}
	if cfg.MeanPacketSize <= 0 {
		cfg.MeanPacketSize = 500
	}
	return &RED{
		cfg:  cfg,
		fifo: NewFIFO(cfg.CapacityBytes),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		idle: true,
	}
}

// OnDrop registers an additional callback invoked for every dropped
// packet. Callbacks run in registration order.
func (r *RED) OnDrop(fn DropFunc) { r.onDrop = append(r.onDrop, fn) }

// AvgQueue returns the current EWMA average queue size in bytes.
func (r *RED) AvgQueue() float64 { return r.avg }

func (r *RED) drop(now eventsim.Time, p *packet.Packet, reason DropReason) DropReason {
	for _, fn := range r.onDrop {
		fn(now, p, reason)
	}
	return reason
}

// Enqueue implements Qdisc with RED early-drop semantics.
func (r *RED) Enqueue(now eventsim.Time, p *packet.Packet) DropReason {
	r.Arrivals++
	r.updateAverage(now)

	switch {
	case r.avg < float64(r.cfg.MinThreshold):
		r.count = -1
	case r.avg >= float64(r.cfg.MaxThreshold):
		r.count = 0
		r.EarlyDrops++
		return r.drop(now, p, DropEarly)
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
			r.EarlyDrops++
			return r.drop(now, p, DropEarly)
		}
	}

	if res := r.fifo.Enqueue(now, p); res != DropNone {
		r.TailDrops++
		return r.drop(now, p, res)
	}
	r.idle = false
	return DropNone
}

// dropProbability returns p_b for an average between the thresholds.
func (r *RED) dropProbability() float64 {
	min, max := float64(r.cfg.MinThreshold), float64(r.cfg.MaxThreshold)
	return r.cfg.MaxP * (r.avg - min) / (max - min)
}

// updateAverage applies the EWMA update, including idle-time decay.
func (r *RED) updateAverage(now eventsim.Time) {
	q := float64(r.fifo.Bytes())
	if r.idle && r.cfg.IdleRate > 0 {
		// While idle, pretend m small packets drained.
		idleSec := (now - r.idleSince).Seconds()
		m := idleSec * r.cfg.IdleRate / float64(r.cfg.MeanPacketSize)
		r.avg *= math.Pow(1-r.cfg.Weight, m)
		r.idle = false
	}
	r.avg = (1-r.cfg.Weight)*r.avg + r.cfg.Weight*q
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
