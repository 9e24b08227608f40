package telemetry

import (
	"accturbo/internal/eventsim"
)

// maxDropReasons bounds the per-reason drop counters in QueueStats.
// queue.DropReason values index into it; unknown reasons fold onto the
// last slot.
const maxDropReasons = 8

// Sink receives per-event queue accounting: every enqueue, dequeue and
// drop a discipline performs, with the post-event depth. Reasons are
// queue.DropReason values carried as opaque small integers so the
// telemetry layer stays independent of the queue package.
//
// Implementations must be cheap and must not retain the packet — the
// sink sees sizes and times only, never headers, so it can run at line
// rate on the real-time path as well as inside the simulator.
type Sink interface {
	// RecordEnqueue reports an accepted packet of pktBytes and the
	// discipline's depth after admission.
	RecordEnqueue(now eventsim.Time, pktBytes, depthPkts, depthBytes int)
	// RecordDequeue reports a departing packet and the depth after it.
	RecordDequeue(now eventsim.Time, pktBytes, depthPkts, depthBytes int)
	// RecordDrop reports a rejected (or pushed-out) packet.
	RecordDrop(now eventsim.Time, pktBytes int, reason uint8)
}

// nopSink discards all events.
type nopSink struct{}

func (nopSink) RecordEnqueue(eventsim.Time, int, int, int) {}
func (nopSink) RecordDequeue(eventsim.Time, int, int, int) {}
func (nopSink) RecordDrop(eventsim.Time, int, uint8)       {}

var nop Sink = nopSink{}

// Nop returns the shared no-op sink. Disciplines default to it so the
// hot path never branches on a nil sink.
func Nop() Sink { return nop }

// OrNop returns s, or the no-op sink when s is nil.
func OrNop(s Sink) Sink {
	if s == nil {
		return nop
	}
	return s
}

// QueueStats is the simulated port's Sink: enqueue/dequeue totals in
// packets and bytes, per-reason drop totals and the depth after the last
// event. It belongs to a single goroutine, the simulator's — like
// netsim.Recorder it sits on the engine's event loop, is read between
// events and is registered with no Registry — so its fields are plain:
// a port pays for three of these calls per packet, and nothing may read
// one while another goroutine writes it. The zero value is ready.
type QueueStats struct {
	n QueueSnapshot
}

// QueueSnapshot is a copy of a QueueStats.
type QueueSnapshot struct {
	EnqueuedPkts, EnqueuedBytes uint64
	DequeuedPkts, DequeuedBytes uint64
	DroppedPkts, DroppedBytes   uint64
	DropsByReason               [maxDropReasons]uint64
	DepthPkts, DepthBytes       int64
}

var _ Sink = (*QueueStats)(nil)

// RecordEnqueue implements Sink.
func (q *QueueStats) RecordEnqueue(_ eventsim.Time, pktBytes, depthPkts, depthBytes int) {
	q.n.EnqueuedPkts++
	q.n.EnqueuedBytes += uint64(pktBytes)
	q.n.DepthPkts, q.n.DepthBytes = int64(depthPkts), int64(depthBytes)
}

// RecordDequeue implements Sink.
func (q *QueueStats) RecordDequeue(_ eventsim.Time, pktBytes, depthPkts, depthBytes int) {
	q.n.DequeuedPkts++
	q.n.DequeuedBytes += uint64(pktBytes)
	q.n.DepthPkts, q.n.DepthBytes = int64(depthPkts), int64(depthBytes)
}

// RecordDrop implements Sink.
func (q *QueueStats) RecordDrop(_ eventsim.Time, pktBytes int, reason uint8) {
	q.n.DroppedPkts++
	q.n.DroppedBytes += uint64(pktBytes)
	q.n.DropsByReason[min(reason, maxDropReasons-1)]++
}

// DropsFor returns the drop count recorded for one reason value.
func (q *QueueStats) DropsFor(reason uint8) uint64 {
	return q.n.DropsByReason[min(reason, maxDropReasons-1)]
}

// Snapshot returns a copy of all queue accounting.
func (q *QueueStats) Snapshot() QueueSnapshot { return q.n }

// TeeSink fans every event out to multiple sinks, for stacking the
// standard accounting with experiment-specific observers.
type TeeSink []Sink

var _ Sink = TeeSink(nil)

// RecordEnqueue implements Sink.
func (t TeeSink) RecordEnqueue(now eventsim.Time, pktBytes, depthPkts, depthBytes int) {
	for _, s := range t {
		s.RecordEnqueue(now, pktBytes, depthPkts, depthBytes)
	}
}

// RecordDequeue implements Sink.
func (t TeeSink) RecordDequeue(now eventsim.Time, pktBytes, depthPkts, depthBytes int) {
	for _, s := range t {
		s.RecordDequeue(now, pktBytes, depthPkts, depthBytes)
	}
}

// RecordDrop implements Sink.
func (t TeeSink) RecordDrop(now eventsim.Time, pktBytes int, reason uint8) {
	for _, s := range t {
		s.RecordDrop(now, pktBytes, reason)
	}
}
