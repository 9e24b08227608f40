package fleet

import (
	"bufio"
	"context"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
)

// This file is the socket backend behind the NodeLink/CoordinatorLink
// seam: the same ACCFLEET frames SimTransport moves whole, written to and
// read from real TCP connections. The split is asymmetric, like the
// deployment: ListenTCP builds the coordinator side (one listener, one
// connection per node) and DialTCP builds a node side (one dialer with
// seeded exponential-backoff reconnect). Both keep the transport
// contract datagram-shaped — a send either reaches the far side's
// handler eventually or is counted and dropped; the node's staleness
// bound, not the socket, remains the fleet's failure detector — which
// is exactly what lets every socket failure mode (reset, stall,
// corruption, partition) degrade toward the existing
// fleet-fallback:local path instead of inventing a new one.
//
// Who writes to a connection, and when (tcpPeer.send):
//
//   - the sender itself, on its own goroutine, when nothing is queued
//     for the peer and nobody else is writing: one non-blocking write
//     on the raw socket. The publish → applied-ranking round trip is the
//     fleet's reaction time, and a hand-off to a writer goroutine costs
//     it a wake-up in each direction for a write that almost always
//     fits the socket buffer.
//   - the connection's writer goroutine otherwise — the socket would
//     block, another write is in progress, frames are already queued,
//     the net.Conn is not a socket, the build is not unix — from a
//     bounded queue whose overflow is a counted drop.
//
// Three rules hold the two together. No overtaking: a sender writes
// inline only while it holds the peer's write mutex and the count of
// frames handed to the writer goroutine and not yet written is zero, so
// a frame is never on the wire before an older one. No torn frames:
// when the kernel takes only part of an inline write, the rest goes to
// the writer goroutine ahead of everything queued, and until it is out
// every other frame queues behind it. No waiting: the inline write is
// one attempt that never waits for the socket to become writable. A
// blocking write there would stall a node's Poll, or the coordinator's
// fan-out to every other node, behind one slow peer until the peer is
// shed — and two peers each blocked writing to the other, with neither
// reading, would deadlock until then.
//
// Failure semantics, per fault:
//
//   - connection reset / refused: the node transport reconnects with
//     exponential backoff plus seeded jitter; until the link is back,
//     publishes are counted drops and the node rides its local ranking.
//   - corrupted bytes: every received frame is CRC-verified before
//     dispatch (VerifyFrame); a failure resets the connection, and the
//     reconnect performs a clean hello re-handshake. A corrupt frame
//     never reaches a handler.
//   - stalled peer: the transport's clock ticks once a beat, and each
//     tick heartbeats every peer. A peer that has sent nothing for
//     silentBeats beats, or has had a write pending for stuckBeats, is
//     shed (coordinator side) or redialed (node side). A slow peer's
//     socket buffer fills and its bounded send queue then overflows
//     into counted drops; it never blocks the broadcast path.
//   - handshake: the hello travels under socket deadlines on the wall
//     clock, cleared once it is through; a connection that cannot
//     finish it in time is dropped.
//   - close: graceful drain; concurrent senders observe ErrClosed, and
//     Close returns only after every transport goroutine has exited.

// The transport's timers: liveness ticks once a beat on the clock each
// half is built with; the dial and hello deadlines are on the wall clock.
// The backoff jitter stream of node id is seeded with
// faults.DeriveSeed(jitterSeed, id).
const (
	beat           = eventsim.Second
	silentBeats    = 4
	stuckBeats     = 2
	dialTimeout    = 2 * time.Second
	helloWrite     = 2 * time.Second
	helloRead      = 4 * time.Second
	backoffMin     = 50 * time.Millisecond
	backoffMax     = 5 * time.Second
	jitterSeed     = 1
	sendQueueDepth = 64 // per peer; overflow is a counted drop
)

// backoff is the reconnect schedule: exponential from backoffMin to
// backoffMax with jitter in [d/2, d) drawn from a seeded splitmix64
// stream, so a test (or a postmortem) can replay the exact delays a node
// slept.
type backoff struct {
	attempt int
	rng     *faults.Rand
}

// next returns the delay before the attempt'th retry and advances the
// schedule.
func (b *backoff) next() time.Duration {
	d := backoffMin
	for i := 0; i < b.attempt && d < backoffMax; i++ {
		d *= 2
	}
	b.attempt++
	half := min(d, backoffMax) / 2
	return half + time.Duration(b.rng.Next()%uint64(half))
}

// reset re-arms the schedule after a successful handshake.
func (b *backoff) reset() { b.attempt = 0 }

// tcpCounters is what both halves count per transport, over all of its
// connections.
type tcpCounters struct {
	framesIn, framesOut, dropsFull, crcResets, heartbeatsIn atomic.Uint64
}

// tcpPeer is one live connection: a buffered reader (the handshake's
// too, so no byte is lost between hello and the read loop), the send
// path described in the file header, and a stop channel + once so either
// the reader, the writer, the tick, a replacement connection, or Close
// can tear it down exactly once.
type tcpPeer struct {
	id       uint32
	conn     net.Conn
	br       *bufio.Reader
	stop     chan struct{}
	once     sync.Once
	clock    core.Clock   // the owning transport's
	lastSeen atomic.Int64 // clock time of the last received frame
	// writeSince is the clock time the writer goroutine's current write
	// began, or notWriting.
	writeSince atomic.Int64

	c *tcpCounters // the owning transport's

	// wmu is held for every write to conn. Senders only ever TryLock it.
	wmu sync.Mutex
	// raw is conn's socket for the inline write; nil when conn has none.
	raw syscall.RawConn
	// try is the RawConn.Write callback, built once so a send allocates
	// nothing; tryBuf and tryN are its argument and result, under wmu.
	try    func(fd uintptr) bool
	tryBuf []byte
	tryN   int
	// head is what a short inline write left unwritten, under wmu. The
	// writer goroutine sends it before anything else.
	head []byte
	// queued counts the frames handed to the writer goroutine, through
	// sendq or head, that it has not finished writing.
	queued atomic.Int32
	sendq  chan []byte
	// kick wakes the writer goroutine for head; one pending wake-up is
	// as good as many.
	kick chan struct{}
}

const notWriting = -1

func newTCPPeer(id uint32, conn net.Conn, br *bufio.Reader, clock core.Clock, c *tcpCounters) *tcpPeer {
	p := &tcpPeer{
		id:    id,
		conn:  conn,
		br:    br,
		stop:  make(chan struct{}),
		clock: clock,
		c:     c,
		sendq: make(chan []byte, sendQueueDepth),
		kick:  make(chan struct{}, 1),
	}
	p.writeSince.Store(notWriting)
	if sc, ok := conn.(syscall.Conn); ok {
		p.raw, _ = sc.SyscallConn() // no socket: every send queues
	}
	p.try = func(fd uintptr) bool {
		if n, err := rawWrite(fd, p.tryBuf); err == nil && n > 0 {
			p.tryN = n
		}
		return true // one attempt: never wait for writability
	}
	p.touch()
	return p
}

// shutdown tears the connection down; true for the call that did.
func (p *tcpPeer) shutdown() (first bool) {
	p.once.Do(func() {
		close(p.stop)
		p.conn.Close()
		first = true
	})
	return first
}

func (p *tcpPeer) touch() { p.lastSeen.Store(int64(p.clock.Now())) }

// tick is one beat of the peer's liveness, at now. A peer that has sent
// nothing for more than silentBeats beats, or has had a write pending
// for stuckBeats, is shut down (true for the call that did); any other
// gets the heartbeat hb.
func (p *tcpPeer) tick(now eventsim.Time, hb []byte) (shed bool) {
	since := p.writeSince.Load()
	if now-eventsim.Time(p.lastSeen.Load()) > silentBeats*beat ||
		since != notWriting && now-eventsim.Time(since) >= stuckBeats*beat {
		return p.shutdown()
	}
	p.send(hb)
	return false
}

// send puts one frame on its way without ever blocking: written to the
// socket here when that is allowed and the kernel takes it, queued for
// the writer goroutine otherwise. false means the queue was full (the
// counted-drop path).
func (p *tcpPeer) send(frame []byte) bool {
	if p.raw != nil && p.wmu.TryLock() {
		n := 0
		if p.queued.Load() == 0 {
			// Any failure (would block, closed, a platform without the raw
			// write) reads as nothing written: the frame queues, and the
			// writer goroutine meets the error where it is handled.
			p.tryBuf, p.tryN = frame, 0
			p.raw.Write(p.try)
			p.tryBuf, n = nil, p.tryN
		}
		if 0 < n && n < len(frame) {
			p.head = frame[n:]
			p.queued.Add(1)
		}
		p.wmu.Unlock()
		switch {
		case n == len(frame):
			p.c.framesOut.Add(1)
			return true
		case n > 0:
			select {
			case p.kick <- struct{}{}:
			default:
			}
			return true
		}
	}
	p.queued.Add(1)
	select {
	case p.sendq <- frame:
		return true
	default:
		p.queued.Add(-1)
		return false
	}
}

// write is the writer goroutine's blocking write: first what a short
// inline write left over, then frame (nil for none). It stamps
// writeSince for the tick while it runs.
func (p *tcpPeer) write(frame []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.writeSince.Store(int64(p.clock.Now()))
	defer p.writeSince.Store(notWriting)
	if p.head != nil {
		head := p.head
		p.head = nil
		p.queued.Add(-1)
		if _, err := p.conn.Write(head); err != nil {
			return err
		}
		p.c.framesOut.Add(1)
	}
	if frame != nil {
		if err := WriteFrame(p.conn, frame); err != nil {
			return err
		}
		p.c.framesOut.Add(1)
	}
	return nil
}

// writeLoop is the connection's writer goroutine, the slow path of send.
// A failed write shuts the connection down and returns true, unless
// something else shut it down first; a stop from elsewhere returns
// false.
func (p *tcpPeer) writeLoop() bool {
	for {
		var err error
		select {
		case <-p.stop:
			return false
		case <-p.kick:
			err = p.write(nil)
		case frame := <-p.sendq:
			err = p.write(frame)
			p.queued.Add(-1)
		}
		if err != nil {
			return p.shutdown()
		}
	}
}

// readLoop is the connection's reader. Every frame is CRC-verified
// before anything looks at it: frames of type want go to deliver,
// heartbeats only feed the last-seen clock, and a frame that fails
// verification or that this direction never carries ends the loop with a
// counted reset — the stream is no longer trusted, and the node's redial
// re-handshakes cleanly. A failed read ends it too.
func (p *tcpPeer) readLoop(want uint8, deliver func(raw []byte)) {
	for {
		raw, err := ReadFrame(p.br)
		if err != nil {
			return
		}
		switch msgType, err := VerifyFrame(raw); {
		case err == nil && msgType == want:
			p.touch()
			p.c.framesIn.Add(1)
			deliver(raw)
		case err == nil && msgType == MsgHeartbeat:
			p.touch()
			p.c.heartbeatsIn.Add(1)
		default:
			p.c.crcResets.Add(1)
			return
		}
	}
}

// readBuffer is each connection's bufio.Reader: a frame that fits (any
// snapshot of a few dozen slots) arrives in one read instead of one for
// the header and one for the rest.
const readBuffer = 16 << 10

func tuneConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // frames are small and latency-sensitive
	}
}

// TCPCoordinatorStats is a point-in-time snapshot of the listener-side
// transport counters.
type TCPCoordinatorStats struct {
	// Accepted counts completed hello handshakes; HandshakeFails counts
	// connections dropped before one (bad first frame, timeout).
	Accepted       uint64
	HandshakeFails uint64
	// FramesIn/FramesOut count dispatched snapshots and written frames
	// (deploys and heartbeats).
	FramesIn  uint64
	FramesOut uint64
	// DropsNoPeer counts ToNode sends to a node with no live
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
	// Connected is the number of live node connections right now.
	Connected int
}

// TCPCoordinatorTransport is the coordinator half of the socket
// backend: a listener accepting one connection per node, each
// identified by its MsgHello. It implements CoordinatorLink; nodes hold
// their own TCPTransport on the far side of the sockets.
type TCPCoordinatorTransport struct {
	ln       net.Listener
	clock    core.Clock
	stopTick func()

	// mu orders registrations against Close. What every frame reads —
	// the handler, the peer table, closed — is read without it: the
	// table is replaced, never written into, under mu.
	mu     sync.Mutex
	coord  atomic.Pointer[func(from uint32, frame []byte)]
	join   atomic.Pointer[func(id uint32)]
	peers  atomic.Pointer[map[uint32]*tcpPeer]
	closed atomic.Bool
	wg     sync.WaitGroup

	tcpCounters
	accepted       atomic.Uint64
	handshakeFails atomic.Uint64
	dropsNoPeer    atomic.Uint64
	peersShed      atomic.Uint64
}

// ListenTCP starts the coordinator-side transport on addr (":0" picks a
// free port; read it back with Addr). Register the coordinator before
// nodes dial in, or early snapshots are dropped on the floor — which
// the protocol tolerates, but the first merge then waits a poll. The
// liveness tick runs on clock.
func ListenTCP(addr string, clock core.Clock) (*TCPCoordinatorTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: coordinator listen: %w", err)
	}
	t := &TCPCoordinatorTransport{ln: ln, clock: clock}
	t.peers.Store(&map[uint32]*tcpPeer{})
	t.stopTick = clock.Every(beat, t.tick)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// tick runs every peer's liveness, once a beat.
func (t *TCPCoordinatorTransport) tick(now eventsim.Time) {
	hb := EncodeHeartbeat(0)
	for _, p := range *t.peers.Load() {
		if p.tick(now, hb) {
			t.peersShed.Add(1)
			t.dropPeer(p)
		}
	}
}

// Addr returns the listener's bound address.
func (t *TCPCoordinatorTransport) Addr() string { return t.ln.Addr().String() }

func (t *TCPCoordinatorTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.handshake(conn)
	}
}

// handshake reads the connection's MsgHello under a deadline, clears
// it, and registers the peer. A second connection for the same node id
// replaces the first (the node redialed; the stale socket may not know
// it is dead yet), which is the clean re-handshake path after a CRC
// reset.
func (t *TCPCoordinatorTransport) handshake(conn net.Conn) {
	defer t.wg.Done()
	tuneConn(conn)
	conn.SetReadDeadline(time.Now().Add(helloRead))
	br := bufio.NewReaderSize(conn, readBuffer)
	var node uint32
	raw, err := ReadFrame(br)
	if err == nil {
		node, err = DecodeHello(raw)
	}
	if err == nil {
		err = conn.SetReadDeadline(time.Time{})
	}
	if err != nil || node == 0 {
		t.handshakeFails.Add(1)
		conn.Close()
		return
	}
	p := newTCPPeer(node, conn, br, t.clock, &t.tcpCounters)
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		conn.Close()
		return
	}
	peers := maps.Clone(*t.peers.Load())
	if old := peers[node]; old != nil {
		old.shutdown()
	}
	peers[node] = p
	t.peers.Store(&peers)
	t.mu.Unlock()
	t.accepted.Add(1)
	if h := t.join.Load(); h != nil {
		(*h)(node)
	}
	t.wg.Add(2)
	go t.readLoop(p)
	go t.writeLoop(p)
}

// dropPeer tears the connection down and unregisters it, unless a
// replacement already took the slot.
func (t *TCPCoordinatorTransport) dropPeer(p *tcpPeer) {
	p.shutdown()
	t.mu.Lock()
	if (*t.peers.Load())[p.id] == p {
		peers := maps.Clone(*t.peers.Load())
		delete(peers, p.id)
		t.peers.Store(&peers)
	}
	t.mu.Unlock()
}

func (t *TCPCoordinatorTransport) readLoop(p *tcpPeer) {
	defer t.wg.Done()
	defer t.dropPeer(p)
	p.readLoop(MsgSnapshot, func(raw []byte) {
		if h := t.coord.Load(); h != nil {
			(*h)(p.id, raw)
		}
	})
}

func (t *TCPCoordinatorTransport) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	if p.writeLoop() {
		t.peersShed.Add(1)
		t.dropPeer(p)
	}
}

// HandleCoordinator implements CoordinatorLink.
func (t *TCPCoordinatorTransport) HandleCoordinator(fn func(from uint32, frame []byte)) {
	t.coord.Store(&fn)
}

// HandleJoin implements CoordinatorLink; fn runs on the handshake's
// goroutine, before the connection's reader starts.
func (t *TCPCoordinatorTransport) HandleJoin(fn func(id uint32)) { t.join.Store(&fn) }

// ToNode implements CoordinatorLink: send to node `to` (tcpPeer.send), from
// any goroutine and without blocking. No live connection or a full
// queue is a counted drop, not an error — the staleness bound on the
// node is the delivery contract.
func (t *TCPCoordinatorTransport) ToNode(to uint32, frame []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	p := (*t.peers.Load())[to]
	if p == nil {
		t.dropsNoPeer.Add(1)
		return nil
	}
	if !p.send(frame) {
		t.dropsFull.Add(1)
	}
	return nil
}

// LastSeen reports, per connected node, how long ago its last frame
// (snapshot or heartbeat) arrived — the per-node liveness view /health
// serves — on the transport's clock.
func (t *TCPCoordinatorTransport) LastSeen() map[uint32]time.Duration {
	now := t.clock.Now()
	peers := *t.peers.Load()
	out := make(map[uint32]time.Duration, len(peers))
	for id, p := range peers {
		out[id] = (now - eventsim.Time(p.lastSeen.Load())).Duration()
	}
	return out
}

// Stats snapshots the transport counters, from any goroutine.
func (t *TCPCoordinatorTransport) Stats() TCPCoordinatorStats {
	return TCPCoordinatorStats{
		Accepted:       t.accepted.Load(),
		HandshakeFails: t.handshakeFails.Load(),
		FramesIn:       t.framesIn.Load(),
		FramesOut:      t.framesOut.Load(),
		DropsNoPeer:    t.dropsNoPeer.Load(),
		DropsQueueFull: t.dropsFull.Load(),
		CRCResets:      t.crcResets.Load(),
		PeersShed:      t.peersShed.Load(),
		HeartbeatsIn:   t.heartbeatsIn.Load(),
		Connected:      len(*t.peers.Load()),
	}
}

// Close stops accepting, tears down every node connection, and waits
// for all transport goroutines to exit. Idempotent; concurrent ToNode
// callers observe ErrClosed.
func (t *TCPCoordinatorTransport) Close() {
	t.mu.Lock()
	already := t.closed.Swap(true)
	peers := *t.peers.Load()
	t.mu.Unlock()
	if !already {
		t.stopTick()
		t.ln.Close()
		for _, p := range peers {
			p.shutdown()
		}
	}
	t.wg.Wait()
}

// TCPNodeStats is a point-in-time snapshot of the dialer-side transport
// counters.
type TCPNodeStats struct {
	// Dials counts connection attempts; Connects counts completed
	// handshakes (so Connects > 1 means the link was re-established).
	Dials    uint64
	Connects uint64
	// FramesIn counts deploys dispatched to the handler; FramesOut
	// counts frames written (snapshots, hello, heartbeats).
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
	// Connected reports whether a handshaken connection is live now.
	Connected bool
}

// TCPTransport is the node half of the socket backend: one dialer that
// keeps a single connection to the coordinator alive, reconnecting with
// seeded exponential backoff whenever it drops. It implements NodeLink.
//
// DialTCP returns before the first connection is up: the fleet node
// rides its local-ranking fallback until the link (and the first fleet
// deploy) lands.
type TCPTransport struct {
	id       uint32
	addr     string
	clock    core.Clock
	stopTick func()

	// ctx ends at Close: it stops the redial loop, an in-flight dial and
	// the backoff sleep.
	ctx    context.Context
	cancel context.CancelFunc

	// mu orders a new connection's registration against Close; senders
	// and the reader read handler, cur and closed without it.
	mu      sync.Mutex
	handler atomic.Pointer[func(frame []byte)]
	cur     atomic.Pointer[tcpPeer]
	closed  atomic.Bool
	wg      sync.WaitGroup

	tcpCounters
	dials             atomic.Uint64
	connects          atomic.Uint64
	dropsDisconnected atomic.Uint64
}

// DialTCP starts the node-side transport for node id against the
// coordinator at addr. id 0 is reserved for the coordinator. The
// liveness tick and the backoff sleep run on clock.
func DialTCP(addr string, id uint32, clock core.Clock) (*TCPTransport, error) {
	if id == 0 {
		return nil, fmt.Errorf("fleet: node id 0 is reserved for the coordinator")
	}
	if addr == "" {
		return nil, fmt.Errorf("fleet: DialTCP needs a coordinator address")
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCPTransport{
		id:     id,
		addr:   addr,
		clock:  clock,
		ctx:    ctx,
		cancel: cancel,
	}
	t.stopTick = clock.Every(beat, t.tick)
	t.wg.Add(1)
	go t.connectLoop()
	return t, nil
}

// tick runs the connection's liveness, once a beat; a shed wakes the
// reader, and the redial starts.
func (t *TCPTransport) tick(now eventsim.Time) {
	if p := t.cur.Load(); p != nil {
		p.tick(now, EncodeHeartbeat(t.id))
	}
}

// connectLoop is the reconnect state machine: dial → hello → serve the
// connection until it dies → back off (seeded exponential + jitter) →
// redial. Close cancels the in-flight dial and the backoff sleep.
func (t *TCPTransport) connectLoop() {
	defer t.wg.Done()
	bo := &backoff{rng: faults.NewRand(faults.DeriveSeed(jitterSeed, uint64(t.id)))}
	for t.ctx.Err() == nil {
		t.dials.Add(1)
		d := net.Dialer{Timeout: dialTimeout}
		if conn, err := d.DialContext(t.ctx, "tcp", t.addr); err == nil && t.runConn(conn) {
			bo.reset()
		}
		wake := make(chan struct{})
		cancel := t.clock.After(eventsim.FromDuration(bo.next()), func(eventsim.Time) { close(wake) })
		select {
		case <-t.ctx.Done():
			cancel()
			return
		case <-wake:
		}
	}
}

// runConn performs the hello handshake and serves one connection; it
// returns true when the handshake completed (resetting the backoff),
// regardless of how the connection later died.
func (t *TCPTransport) runConn(conn net.Conn) bool {
	tuneConn(conn)
	conn.SetWriteDeadline(time.Now().Add(helloWrite))
	err := WriteFrame(conn, EncodeHello(t.id))
	if err == nil {
		err = conn.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return false
	}
	p := newTCPPeer(t.id, conn, bufio.NewReaderSize(conn, readBuffer), t.clock, &t.tcpCounters)
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		conn.Close()
		return false
	}
	t.cur.Store(p)
	t.mu.Unlock()
	t.connects.Add(1)

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		p.writeLoop() // a failure wakes the reader, and the redial starts
	}()
	// Reset, shed, or close: the redial decides what next.
	p.readLoop(MsgDeploy, func(raw []byte) {
		if h := t.handler.Load(); h != nil {
			(*h)(raw)
		}
	})

	p.shutdown()
	t.cur.CompareAndSwap(p, nil)
	return true
}

// HandleNode implements NodeLink; handlers for other ids are ignored
// (this transport speaks for exactly one node).
func (t *TCPTransport) HandleNode(id uint32, fn func(frame []byte)) {
	if id != t.id {
		return
	}
	t.handler.Store(&fn)
}

// ToCoordinator implements NodeLink: send on the live connection
// (tcpPeer.send), without blocking. While disconnected the frame is a
// counted drop (the coordinator only ever wants the newest snapshot,
// so buffering across a reconnect would ship stale state); after Close
// it is ErrClosed.
func (t *TCPTransport) ToCoordinator(from uint32, frame []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	p := t.cur.Load()
	if p == nil {
		t.dropsDisconnected.Add(1)
		return nil
	}
	if !p.send(frame) {
		t.dropsFull.Add(1)
	}
	return nil
}

// Connected reports whether a handshaken connection is live.
func (t *TCPTransport) Connected() bool { return t.cur.Load() != nil }

// Stats snapshots the transport counters, from any goroutine.
func (t *TCPTransport) Stats() TCPNodeStats {
	return TCPNodeStats{
		Dials:             t.dials.Load(),
		Connects:          t.connects.Load(),
		FramesIn:          t.framesIn.Load(),
		FramesOut:         t.framesOut.Load(),
		DropsDisconnected: t.dropsDisconnected.Load(),
		DropsQueueFull:    t.dropsFull.Load(),
		CRCResets:         t.crcResets.Load(),
		HeartbeatsIn:      t.heartbeatsIn.Load(),
		Connected:         t.Connected(),
	}
}

// Close stops the dialer — cancelling an in-flight dial or backoff
// sleep — tears down the live connection, and waits for every
// transport goroutine to exit. Idempotent; concurrent publishers
// observe ErrClosed.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	already := t.closed.Swap(true)
	p := t.cur.Load()
	t.mu.Unlock()
	if !already {
		t.stopTick()
		t.cancel()
		if p != nil {
			p.shutdown()
		}
	}
	t.wg.Wait()
}

// Each half is one end of the seam.
var (
	_ CoordinatorLink = (*TCPCoordinatorTransport)(nil)
	_ NodeLink        = (*TCPTransport)(nil)
)
