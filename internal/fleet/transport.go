package fleet

import (
	"errors"
	"sync"
	"sync/atomic"

	"accturbo/internal/eventsim"
)

// Transport moves framed fleet messages between N nodes and one
// coordinator. It is deliberately datagram-shaped over TCP-shaped
// frames: a send either hands the frame to the far side's handler
// (possibly later) or drops it — there is no delivery report beyond
// ErrClosed, because the node's staleness bound, not the transport, is
// the fleet's failure detector. Handlers run on the transport's
// delivery context (the event engine for SimTransport, the dispatcher
// goroutine for ChanTransport) and must not block it.
//
// Both in-process backends move whole frames; the framing itself is
// byte-stream-safe (see WriteFrame/ReadFrame), which is what the socket
// backend in tcp.go relies on behind this same interface.
type Transport interface {
	// ToCoordinator sends a frame from node `from` to the coordinator.
	ToCoordinator(from uint32, frame []byte) error
	// ToNode sends a frame from the coordinator to node `to`.
	ToNode(to uint32, frame []byte) error
	// HandleCoordinator registers the coordinator's receive handler.
	HandleCoordinator(fn func(from uint32, frame []byte))
	// HandleNode registers node id's receive handler.
	HandleNode(id uint32, fn func(frame []byte))
}

// ErrClosed reports a send on a closed transport.
var ErrClosed = errors.New("fleet: transport closed")

// SimTransport delivers frames as scheduled events on a shared
// discrete-event engine: every send arrives exactly Latency later, in
// deterministic engine order — the backend the fleet experiment and the
// determinism gates run on. SetUp(false) partitions the fleet (frames
// in either direction are counted and dropped, exactly what a node
// behind a network partition observes); SetUp(true) heals it. Not
// goroutine-safe: everything happens on the engine's thread, like the
// rest of eventsim.
type SimTransport struct {
	eng     *eventsim.Engine
	latency eventsim.Time
	up      bool

	coord func(from uint32, frame []byte)
	nodes map[uint32]func(frame []byte)

	// Dropped counts frames lost to partition, in both directions.
	Dropped uint64
	// Delivered counts frames handed to a handler.
	Delivered uint64
}

// NewSimTransport builds a deterministic in-process transport on eng
// with the given one-way delivery latency. The link starts up.
func NewSimTransport(eng *eventsim.Engine, latency eventsim.Time) *SimTransport {
	return &SimTransport{
		eng:     eng,
		latency: latency,
		up:      true,
		nodes:   make(map[uint32]func(frame []byte)),
	}
}

// SetUp raises (true) or partitions (false) the coordinator link. A
// partition drops frames at send time; frames already in flight still
// deliver, like packets past the failed switch.
func (t *SimTransport) SetUp(up bool) { t.up = up }

// Up reports the link state.
func (t *SimTransport) Up() bool { return t.up }

func (t *SimTransport) HandleCoordinator(fn func(from uint32, frame []byte)) { t.coord = fn }

func (t *SimTransport) HandleNode(id uint32, fn func(frame []byte)) { t.nodes[id] = fn }

func (t *SimTransport) ToCoordinator(from uint32, frame []byte) error {
	if !t.up || t.coord == nil {
		t.Dropped++
		return nil
	}
	t.eng.At(t.eng.Now()+t.latency, func(eventsim.Time) {
		t.Delivered++
		t.coord(from, frame)
	})
	return nil
}

func (t *SimTransport) ToNode(to uint32, frame []byte) error {
	fn, ok := t.nodes[to]
	if !t.up || !ok {
		t.Dropped++
		return nil
	}
	t.eng.At(t.eng.Now()+t.latency, func(eventsim.Time) {
		t.Delivered++
		fn(frame)
	})
	return nil
}

// ChanTransport is the real-time in-process backend: one dispatcher
// goroutine drains a bounded queue and invokes handlers, preserving
// send order. Sends are safe from any goroutine and never block the
// caller's control loop: a full queue drops the frame (counted) the way
// a congested link would, and a closed transport returns ErrClosed —
// which is how close-while-publish resolves safely (see Close).
type ChanTransport struct {
	mu     sync.RWMutex
	coord  func(from uint32, frame []byte)
	nodes  map[uint32]func(frame []byte)
	queue  chan chanDelivery
	done   chan struct{}
	closed atomic.Bool
	up     atomic.Bool

	dropped   atomic.Uint64
	delivered atomic.Uint64
}

type chanDelivery struct {
	toCoord bool
	id      uint32 // from (toCoord) or to (!toCoord)
	frame   []byte
}

// NewChanTransport builds a real-time transport with a queue of the
// given depth (<=0 defaults to 256). Call Close to stop the dispatcher.
func NewChanTransport(depth int) *ChanTransport {
	if depth <= 0 {
		depth = 256
	}
	t := &ChanTransport{
		nodes: make(map[uint32]func(frame []byte)),
		queue: make(chan chanDelivery, depth),
		done:  make(chan struct{}),
	}
	t.up.Store(true)
	go t.dispatch()
	return t
}

func (t *ChanTransport) dispatch() {
	defer close(t.done)
	for d := range t.queue {
		t.mu.RLock()
		coord, node := t.coord, t.nodes[d.id]
		t.mu.RUnlock()
		if d.toCoord {
			if coord != nil {
				t.delivered.Add(1)
				coord(d.id, d.frame)
			}
			continue
		}
		if node != nil {
			t.delivered.Add(1)
			node(d.frame)
		}
	}
}

// SetUp raises (true) or partitions (false) the link, from any
// goroutine.
func (t *ChanTransport) SetUp(up bool) { t.up.Store(up) }

func (t *ChanTransport) HandleCoordinator(fn func(from uint32, frame []byte)) {
	t.mu.Lock()
	t.coord = fn
	t.mu.Unlock()
}

func (t *ChanTransport) HandleNode(id uint32, fn func(frame []byte)) {
	t.mu.Lock()
	t.nodes[id] = fn
	t.mu.Unlock()
}

// send enqueues under the read lock; Close takes the write lock, so a
// send either observes closed (ErrClosed) or completes its enqueue
// before the queue channel closes — never a send on a closed channel.
func (t *ChanTransport) send(d chanDelivery) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed.Load() {
		return ErrClosed
	}
	if !t.up.Load() {
		t.dropped.Add(1)
		return nil
	}
	select {
	case t.queue <- d:
		return nil
	default:
		t.dropped.Add(1)
		return nil
	}
}

func (t *ChanTransport) ToCoordinator(from uint32, frame []byte) error {
	return t.send(chanDelivery{toCoord: true, id: from, frame: frame})
}

func (t *ChanTransport) ToNode(to uint32, frame []byte) error {
	return t.send(chanDelivery{id: to, frame: frame})
}

// Dropped counts frames lost to partition or backpressure.
func (t *ChanTransport) Dropped() uint64 { return t.dropped.Load() }

// Delivered counts frames handed to a handler.
func (t *ChanTransport) Delivered() uint64 { return t.delivered.Load() }

// Close stops accepting sends, drains in-flight deliveries, and waits
// for the dispatcher to exit. Idempotent and safe concurrently with
// sends: publishers racing Close get ErrClosed (or complete first),
// and by return no handler is running or will run again.
func (t *ChanTransport) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		<-t.done
		return
	}
	// The write lock waits out every in-flight send's read lock; after
	// this, no goroutine can be inside send() un-aware of closed.
	t.mu.Lock()
	close(t.queue)
	t.mu.Unlock()
	<-t.done
}
