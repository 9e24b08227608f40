package accturbo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accturbo/internal/core"
	"accturbo/internal/packet"
	"accturbo/internal/ring"
	"accturbo/internal/telemetry"
)

// The ingest stage is the bounded hand-off between capture threads and
// the data plane, built on lock-free SPSC rings (internal/ring): a
// lanes × shards ring matrix where every ring has exactly one producer
// (the goroutine that owns the lane) and one consumer (that shard's
// drain goroutine). Frames are reduced to their clustering features and
// demuxed to their flow-hash shard at offer time, so a shard's consumer
// feeds its clusterer directly with ObserveShardFrames — no grouping
// pass, no shared queue, no lock anywhere on the path.
//
// Lane/OfferFrame is the one door: a capture goroutine takes a lane,
// decodes each frame's features while its header is cache-hot, and
// pushes the compact records with batched publish. Callers that already
// hold decoded Packets use the synchronous Process instead.
// When a ring is full the offer sheds (counted, never blocking), so
// overload degrades visibly.
type ingestStage struct {
	d     *Defense
	rings [][]*ring.SPSC[core.FrameFeatures] // [lane][shard]
	wake  []chan struct{}                    // per-shard consumer doorbells
	wg    sync.WaitGroup

	capacity int // sum of ring capacities, reported by Health
	feats    FeatureSet
	shed     telemetry.Counter
	rejected telemetry.Counter

	// closed fails new offers before the rings are torn down.
	closed atomic.Bool
}

// ingestBatch is the per-consumer drain granularity. It bounds consumer
// buffer footprint and keeps a shard's counting scratch cache-resident.
const ingestBatch = 256

// laneFlushEvery is the wire path's auto-publish threshold: OfferFrame
// publishes a lane's pending pushes to a shard once this many stack up,
// amortizing the cross-core store without letting frames linger.
const laneFlushEvery = 64

// EnableIngest starts the bounded ingest stage on a real-time pipeline:
// `lanes` producer lanes feed one drain goroutine per data-plane shard
// through single-producer/single-consumer rings, with the given total
// buffer capacity split evenly across the lane×shard matrix (each ring
// rounds up to a power of two, so the effective total — reported by
// Health — may exceed the request). After this, take a lane per capture
// goroutine with Lane and feed it raw frames. Close drains the stage
// before stopping the control loop. It errors in deterministic mode
// (whose single-threaded Process needs no queue) and when called twice.
func (d *Defense) EnableIngest(capacity, lanes int) error {
	if d.clock == nil {
		return fmt.Errorf("accturbo: EnableIngest requires the real-time pipeline")
	}
	if capacity <= 0 || lanes <= 0 {
		return fmt.Errorf("accturbo: EnableIngest(%d, %d): capacity and lanes must be positive", capacity, lanes)
	}
	shards := d.dp.NumShards()
	perRing := capacity / (lanes * shards)
	if perRing < 2 {
		perRing = 2
	}
	in := &ingestStage{
		d:     d,
		rings: make([][]*ring.SPSC[core.FrameFeatures], lanes),
		wake:  make([]chan struct{}, shards),
		feats: d.dp.Config().Clustering.Features,
	}
	for l := range in.rings {
		in.rings[l] = make([]*ring.SPSC[core.FrameFeatures], shards)
		for s := range in.rings[l] {
			in.rings[l][s] = ring.New[core.FrameFeatures](perRing)
			in.capacity += in.rings[l][s].Cap()
		}
	}
	for s := range in.wake {
		in.wake[s] = make(chan struct{}, 1)
	}
	if !d.ingest.CompareAndSwap(nil, in) {
		return fmt.Errorf("accturbo: ingest already enabled")
	}
	for s := 0; s < shards; s++ {
		in.wg.Add(1)
		go in.drainShard(s)
	}
	return nil
}

// OfferResult reports the fate of one frame handed to a wire-speed
// lane.
type OfferResult uint8

const (
	// OfferAccepted: the frame is queued and will be classified (after
	// the lane's next flush, for batched pushes).
	OfferAccepted OfferResult = iota
	// OfferFull: the frame's shard ring had no room; the frame was shed
	// under backpressure and counted in IngestShed.
	OfferFull
	// OfferRejected: the bytes are not a classifiable IPv4 frame
	// (truncated or malformed); counted separately from shed.
	OfferRejected
	// OfferClosed: the stage is closed; counted as shed.
	OfferClosed
)

// IngestLane is one producer lane of the wire-speed frame path. All
// methods must be called from one goroutine; distinct lanes are fully
// independent. Before the Defense is closed the owner must stop
// offering and call Flush, so every accepted frame is published to its
// consumer.
type IngestLane struct {
	in      *ingestStage
	rings   []*ring.SPSC[core.FrameFeatures]
	pending []int32 // unpublished pushes per shard ring
	dirty   []int32 // shards touched since the last Flush, in first-push order
	isDirty []bool  // membership flags for dirty
}

// Lane returns producer lane l (0 <= l < the lane count given to
// EnableIngest). Taking the same lane twice returns the same ring set —
// the caller owns the "one producer goroutine per lane" contract.
func (d *Defense) Lane(l int) *IngestLane {
	in := d.ingest.Load()
	if in == nil {
		panic("accturbo: Lane before EnableIngest")
	}
	if l < 0 || l >= len(in.rings) {
		panic(fmt.Sprintf("accturbo: Lane(%d) out of range [0,%d)", l, len(in.rings)))
	}
	shards := len(in.rings[l])
	return &IngestLane{
		in:      in,
		rings:   in.rings[l],
		pending: make([]int32, shards),
		dirty:   make([]int32, 0, shards),
		isDirty: make([]bool, shards),
	}
}

// OfferFrame validates one raw IPv4 frame, decodes its clustering
// features in place (the fused packet.FrameView path — the header bytes
// are only read during this call, never retained), and queues them on
// the flow's shard ring. Pushes publish in batches of laneFlushEvery
// per shard; call Flush to publish a tail immediately. Not safe for
// concurrent use — one goroutine per lane.
func (l *IngestLane) OfferFrame(frame []byte) OfferResult {
	v, err := packet.ParseFrame(frame)
	if err != nil {
		l.in.rejected.Inc()
		return OfferRejected
	}
	if l.in.closed.Load() {
		l.in.shed.Inc()
		return OfferClosed
	}
	si := l.in.d.dp.ShardOfFrame(&v)
	var ff core.FrameFeatures
	ff.Size = uint32(v.Length())
	v.Features(l.in.feats, ff.Vals[:len(l.in.feats)])
	if !l.rings[si].Push(ff) {
		l.in.shed.Inc()
		return OfferFull
	}
	if !l.isDirty[si] {
		l.isDirty[si] = true
		l.dirty = append(l.dirty, int32(si))
	}
	l.pending[si]++
	if l.pending[si] >= laneFlushEvery {
		l.rings[si].Publish()
		l.pending[si] = 0
		l.in.signal(si)
	}
	return OfferAccepted
}

// Flush publishes every pending push on the lane and wakes the affected
// consumers. Call it when the capture loop goes idle and before Close.
func (l *IngestLane) Flush() {
	for _, si := range l.dirty {
		l.rings[si].Publish()
		if l.pending[si] > 0 {
			l.in.signal(int(si))
		}
		l.pending[si] = 0
		l.isDirty[si] = false
	}
	l.dirty = l.dirty[:0]
}

// signal rings shard si's consumer doorbell without blocking; a full
// doorbell means a wake-up is already pending.
func (in *ingestStage) signal(si int) {
	select {
	case in.wake[si] <- struct{}{}:
	default:
	}
}

// drainShard is shard si's consumer: it sweeps every lane's ring for
// the shard and feeds the shard's clusterer through the per-shard batch
// entry point. It parks on the shard doorbell when all rings are empty
// (with a timer backstop for publishes that raced the park) and exits
// once every ring is closed and drained.
func (in *ingestStage) drainShard(si int) {
	defer in.wg.Done()
	frames := make([]core.FrameFeatures, ingestBatch)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		// Read closure before sweeping: a positive closed check followed
		// by an empty sweep proves no published item can remain (rings
		// close only after their final publish).
		allClosed := true
		swept := 0
		for l := range in.rings {
			r := in.rings[l][si]
			if !r.Closed() {
				allClosed = false
			}
			for {
				n := r.PopBatch(frames)
				if n == 0 {
					break
				}
				swept += n
				in.d.dp.ObserveShardFrames(si, frames[:n], nil)
			}
		}
		if swept > 0 {
			continue
		}
		if allClosed {
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Millisecond)
		select {
		case <-in.wake[si]:
		case <-timer.C:
		}
	}
}

// depth reports the number of queued, unconsumed frames across the ring
// matrix (a point-in-time estimate).
func (in *ingestStage) depth() int {
	n := 0
	for l := range in.rings {
		for _, r := range in.rings[l] {
			n += r.Len()
		}
	}
	return n
}

// close tears the stage down: fail new offers, publish any un-Flushed
// tail (lanes must already have stopped per the IngestLane contract),
// close every ring, and wait for the consumers to drain. Idempotent.
func (in *ingestStage) close() {
	if in.closed.Swap(true) {
		return
	}
	for l := range in.rings {
		for _, r := range in.rings[l] {
			r.Publish()
			r.Close()
		}
	}
	for si := range in.wake {
		in.signal(si)
	}
	in.wg.Wait()
}

// IngestShed returns the number of frames the ingest stage shed under
// backpressure or closure. Zero until EnableIngest.
func (d *Defense) IngestShed() uint64 {
	if in := d.ingest.Load(); in != nil {
		return in.shed.Value()
	}
	return 0
}

// IngestRejected returns the number of malformed frames OfferFrame
// refused to queue. Zero until EnableIngest.
func (d *Defense) IngestRejected() uint64 {
	if in := d.ingest.Load(); in != nil {
		return in.rejected.Value()
	}
	return 0
}
