package fleet

import (
	"errors"

	"accturbo/internal/eventsim"
)

// A transport moves framed fleet messages between N nodes and one
// coordinator. It is deliberately datagram-shaped over TCP-shaped
// frames: a send either hands the frame to the far side's handler
// (possibly later) or drops it — there is no delivery report beyond
// ErrClosed, because the node's staleness bound, not the transport, is
// the fleet's failure detector. Handlers run on the transport's
// delivery context (the event engine for SimTransport, a connection's
// reader goroutine for the socket backend in tcp.go) and must not block
// it.
//
// The seam is split by who holds it, so a wrong-direction call does not
// compile: a Node is built on a NodeLink, a Coordinator on a
// CoordinatorLink. SimTransport carries both directions in one object;
// the socket backend is one type per role, like the deployment.

// NodeLink is a node's end of the transport.
type NodeLink interface {
	// ToCoordinator sends a frame from node `from` to the coordinator.
	ToCoordinator(from uint32, frame []byte) error
	// HandleNode registers node id's receive handler.
	HandleNode(id uint32, fn func(frame []byte))
}

// CoordinatorLink is the coordinator's end of the transport.
type CoordinatorLink interface {
	// ToNode sends a frame from the coordinator to node `to`.
	ToNode(to uint32, frame []byte) error
	// HandleCoordinator registers the coordinator's receive handler.
	HandleCoordinator(fn func(from uint32, frame []byte))
	// HandleJoin registers what runs when node id completes a handshake,
	// ahead of any frame the new connection carries: the process behind
	// the id may be a new one, counting its sequence numbers from 1.
	HandleJoin(fn func(id uint32))
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
	join  func(id uint32)
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

func (t *SimTransport) HandleCoordinator(fn func(from uint32, frame []byte)) { t.coord = fn }

func (t *SimTransport) HandleJoin(fn func(id uint32)) { t.join = fn }

// HandleNode registers the handler; registration is this backend's
// handshake.
func (t *SimTransport) HandleNode(id uint32, fn func(frame []byte)) {
	t.nodes[id] = fn
	if t.join != nil {
		t.join(id)
	}
}

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

// SimTransport is both ends at once.
var (
	_ NodeLink        = (*SimTransport)(nil)
	_ CoordinatorLink = (*SimTransport)(nil)
)
