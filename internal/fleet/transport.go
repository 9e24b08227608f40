package fleet

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"accturbo/internal/core"
	"accturbo/internal/eventsim"
)

// A transport moves framed fleet messages between N nodes and one
// coordinator, datagram-shaped: a send reaches the far side's handler or
// is dropped, with no report beyond ErrClosed — the node's staleness
// bound is the fleet's failure detector. Handlers run where the carrier
// delivers, outside the end's lock, and must not block; the frame a
// handler is given has been verified and may alias the carrier's read
// buffer, so it is good only for the call. A Node is built on a NodeEnd,
// a Coordinator on a CoordinatorEnd; neither end has the other's
// methods, so a wrong-direction call does not compile.

// ErrClosed reports a send on a closed transport.
var ErrClosed = errors.New("fleet: transport closed")

// CoordinatorLinkStats is a point-in-time snapshot of a coordinator
// end's counters.
type CoordinatorLinkStats struct {
	// Accepted counts completed hello handshakes; HandshakeFails counts
	// connections dropped before one (a first frame that is not a hello,
	// or silentBeats beats without one).
	Accepted       uint64
	HandshakeFails uint64
	// FramesIn/FramesOut count dispatched snapshots and written frames
	// (deploys and heartbeats).
	FramesIn  uint64
	FramesOut uint64
	// DropsNoPeer counts ToNode sends to a node with no joined
	// connection; DropsQueueFull counts bounded-queue overflows.
	DropsNoPeer    uint64
	DropsQueueFull uint64
	// CRCResets counts connections reset after a frame failed
	// verification; PeersShed counts connections dropped for silence, a
	// stuck write or a failed one.
	CRCResets uint64
	PeersShed uint64
	// HeartbeatsIn counts node heartbeats received.
	HeartbeatsIn uint64
	// Connected is the number of joined node connections right now.
	Connected int
}

// NodeLinkStats is a point-in-time snapshot of a node end's counters.
type NodeLinkStats struct {
	// Dials counts connection attempts; Connects counts the ones that
	// connected and sent the hello (so Connects > 1 means the link was
	// re-established).
	Dials    uint64
	Connects uint64
	// FramesIn counts deploys dispatched to the handler; FramesOut
	// counts frames written (hello, snapshots, heartbeats).
	FramesIn  uint64
	FramesOut uint64
	// DropsDisconnected counts publishes while the link was down;
	// DropsQueueFull counts bounded-queue overflows.
	DropsDisconnected uint64
	DropsQueueFull    uint64
	// CRCResets counts connections this side reset after a frame failed
	// verification.
	CRCResets uint64
	// HeartbeatsIn counts coordinator heartbeats received.
	HeartbeatsIn uint64
	// Connected reports whether a connection is live now.
	Connected bool
}

// end is either role's protocol on a carrier: the machine under a lock,
// the handlers, the liveness tick, and the counts the carrier's send
// path keeps (frames written whole, frames its queue refused). The
// carrier reports every chunk it reads (recv) and each connection's end
// (ended).
type end struct {
	clock     core.Clock
	stopTick  func()
	out, full atomic.Uint64

	mu      sync.Mutex
	m       proto
	closed  bool
	handler func(from uint32, frame []byte)
	join    func(id uint32)
}

// init sets e up as node id's end (0: the coordinator's) on clock and
// starts its liveness tick.
func (e *end) init(id uint32, clock core.Clock) {
	e.clock, e.m = clock, newProto(id)
	e.handler, e.join = func(uint32, []byte) {}, func(uint32) {}
	e.stopTick = clock.Every(beat, func(now eventsim.Time) {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.m.tick(now)
	})
}

// recv hands the machine the frames a chunk read on c completes — cut and
// verified outside the lock, since only c's reader touches its stream —
// then the handlers the join and the frames to deliver.
func (e *end) recv(c *conn, chunk []byte) {
	frames, ok := c.read(chunk)
	e.mu.Lock()
	joined, frames := e.m.recv(c, e.clock.Now(), frames, ok)
	handler, join := e.handler, e.join
	e.mu.Unlock()
	if joined {
		join(c.node)
	}
	for _, f := range frames {
		handler(c.node, f)
	}
}

// ended reports c gone (shed: the carrier's write to it failed first);
// a node's carrier dials again after redial.
func (e *end) ended(c *conn, shed bool) (redial eventsim.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.ended(c, shed)
}

// send hands frame to the carrier of node to's connection, without
// blocking. No connection or a full queue is a counted drop, not an
// error.
func (e *end) send(to uint32, frame []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	c := e.m.route(to)
	e.mu.Unlock()
	if c != nil && !c.w.send(frame) {
		e.full.Add(1)
	}
	return nil
}

// close stops the tick and drops every connection; senders get ErrClosed.
func (e *end) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		e.stopTick()
		for _, c := range slices.Clone(e.m.conns) {
			e.m.drop(c, false)
		}
	}
}

// CoordinatorEnd is the coordinator's end of the protocol on either
// carrier. Its carrier also reports each connection it makes (accept).
type CoordinatorEnd struct{ end }

func newCoordinatorEnd(clock core.Clock) *CoordinatorEnd {
	e := &CoordinatorEnd{}
	e.init(0, clock)
	return e
}

// accept registers a connection the carrier made; nil once closed.
func (e *CoordinatorEnd) accept(w wire) *conn {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	return e.m.accept(w, e.clock.Now())
}

// HandleCoordinator registers the coordinator's receive handler.
func (e *CoordinatorEnd) HandleCoordinator(fn func(from uint32, frame []byte)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = fn
}

// HandleJoin registers what runs when node id completes a handshake,
// ahead of any frame the new connection carries: the process behind the
// id may be a new one, counting its sequence numbers from 1.
func (e *CoordinatorEnd) HandleJoin(fn func(id uint32)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.join = fn
}

// ToNode sends a frame to node `to`, from any goroutine (end.send).
func (e *CoordinatorEnd) ToNode(to uint32, frame []byte) error { return e.send(to, frame) }

// LastSeen reports, per joined node, how long ago on the end's clock its
// last frame arrived — the liveness view /health serves.
func (e *CoordinatorEnd) LastSeen() map[uint32]time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[uint32]time.Duration, len(e.m.peers))
	for id, c := range e.m.peers {
		out[id] = (e.clock.Now() - c.lastSeen).Duration()
	}
	return out
}

// Stats snapshots the counters, from any goroutine.
func (e *CoordinatorEnd) Stats() CoordinatorLinkStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.m.st
	return CoordinatorLinkStats{Accepted: s.joins, HandshakeFails: s.handshakeFails, FramesIn: s.framesIn,
		FramesOut: e.out.Load(), DropsNoPeer: s.noPeer, DropsQueueFull: e.full.Load(), CRCResets: s.crcResets,
		PeersShed: s.shed, HeartbeatsIn: s.heartbeatsIn, Connected: len(e.m.peers)}
}

// NodeEnd is a node's end of the protocol on either carrier. Its carrier
// also reports each dial's outcome (dialed), and dials again when dialed
// or ended say.
type NodeEnd struct{ end }

func newNodeEnd(id uint32, clock core.Clock) *NodeEnd {
	e := &NodeEnd{}
	e.init(id, clock)
	return e
}

// dialed reports a dial's outcome, w (nil when it failed); c is nil when
// the dial failed — dial again after redial — or the end is closed.
func (e *NodeEnd) dialed(w wire) (c *conn, redial eventsim.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, 0
	}
	return e.m.dialed(w, e.clock.Now())
}

// HandleNode registers node id's receive handler; an end speaks for one
// node and ignores other ids.
func (e *NodeEnd) HandleNode(id uint32, fn func(frame []byte)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id == e.m.id {
		e.handler = func(_ uint32, f []byte) { fn(f) }
	}
}

// ToCoordinator sends a frame from the end's node to the coordinator,
// without blocking (end.send). While disconnected the frame is a counted
// drop: the coordinator only wants the newest snapshot, so buffering
// across a reconnect ships stale state.
func (e *NodeEnd) ToCoordinator(_ uint32, frame []byte) error { return e.send(e.m.id, frame) }

// Connected reports whether a connection is live.
func (e *NodeEnd) Connected() bool { return e.Stats().Connected }

// Stats snapshots the counters, from any goroutine.
func (e *NodeEnd) Stats() NodeLinkStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.m.st
	return NodeLinkStats{Dials: s.dials, Connects: s.joins, FramesIn: s.framesIn, FramesOut: e.out.Load(),
		DropsDisconnected: s.noPeer, DropsQueueFull: e.full.Load(), CRCResets: s.crcResets,
		HeartbeatsIn: s.heartbeatsIn, Connected: len(e.m.peers) > 0}
}
