package fleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"accturbo/internal/core"
	"accturbo/internal/eventsim"
)

// This file is the socket carrier of the fleet protocol: two thin pumps
// over the ends of transport.go. ListenTCP accepts connections for a
// CoordinatorEnd and DialTCP dials one for a NodeEnd, redialing when the
// end says so; each connection has a reader goroutine that feeds the end
// and a writer goroutine behind tcpPeer.send. The dial timeout is the
// only wall-clock deadline here.
//
// A sender writes a frame itself, one non-blocking write on the raw
// socket, when nothing is queued for the peer and nobody else is
// writing — the publish → applied-ranking round trip is the fleet's
// reaction time, and a hand-off costs it a wake-up per hop — and queues
// it for the writer goroutine otherwise, a full queue being a counted
// drop. No frame overtakes an older one, none is torn, and no sender
// waits for the socket; DESIGN.md ("TCP transport") gives the rules. A
// peer whose queued write has been pending for stuckBeats beats is shed.

const (
	stuckBeats     = 2
	dialTimeout    = 2 * time.Second
	sendQueueDepth = 64 // per peer; overflow is a counted drop
)

// tcpPeer is one live connection's carrier side: the send path described
// in the file header, and a stop channel + once so the reader, the
// writer, a shed, a replacement connection or Close can tear it down
// exactly once.
type tcpPeer struct {
	conn net.Conn
	e    *end // the owning end: its clock, and FramesOut
	stop chan struct{}
	once sync.Once
	// writeSince is the clock time the writer goroutine's current write
	// began, or notWriting.
	writeSince atomic.Int64

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

// newTCPPeer starts the carrier side of conn for e. Go's TCP connections
// already disable Nagle's algorithm, which small latency-bound frames need.
func newTCPPeer(conn net.Conn, e *end) *tcpPeer {
	p := &tcpPeer{
		conn:  conn,
		e:     e,
		stop:  make(chan struct{}),
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

// stuck reports a write of the writer goroutine's pending since
// stuckBeats beats before now.
func (p *tcpPeer) stuck(now eventsim.Time) bool {
	since := p.writeSince.Load()
	return since != notWriting && now-eventsim.Time(since) >= stuckBeats*beat
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
			p.e.out.Add(1)
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
	p.writeSince.Store(int64(p.e.clock.Now()))
	defer p.writeSince.Store(notWriting)
	if p.head != nil {
		head := p.head
		p.head = nil
		p.queued.Add(-1)
		if _, err := p.conn.Write(head); err != nil {
			return err
		}
		p.e.out.Add(1)
	}
	if frame != nil {
		if _, err := p.conn.Write(frame); err != nil {
			return err
		}
		p.e.out.Add(1)
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

// serve pumps connection c until a read fails — the peer went, or the
// machine or the writer shut it down — with the writer on a goroutine of
// its own and the reader on this one, then reports c's end, shed when
// the writer's failed write ended it.
func (p *tcpPeer) serve(c *conn) (redial eventsim.Time) {
	shed := make(chan bool)
	go func() { shed <- p.writeLoop() }()
	buf := make([]byte, readBuffer)
	for {
		n, err := p.conn.Read(buf)
		if n > 0 {
			p.e.recv(c, buf[:n])
		}
		if err != nil {
			p.shutdown()
			return p.e.ended(c, <-shed)
		}
	}
}

// readBuffer is each connection's read size: a frame that fits (any
// snapshot of a few dozen slots) arrives in one read.
const readBuffer = 16 << 10

// TCPCoordinatorTransport is the coordinator half of the socket carrier:
// a listener whose every connection a CoordinatorEnd speaks the protocol
// on; nodes hold their own TCPTransport on the far side of the sockets.
type TCPCoordinatorTransport struct {
	*CoordinatorEnd
	ln net.Listener
	wg sync.WaitGroup
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
	t := &TCPCoordinatorTransport{CoordinatorEnd: newCoordinatorEnd(clock), ln: ln}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			nc, err := t.ln.Accept()
			if err != nil {
				return // listener closed
			}
			p := newTCPPeer(nc, &t.end)
			if c := t.accept(p); c == nil {
				nc.Close()
			} else {
				t.wg.Add(1)
				go func() {
					defer t.wg.Done()
					p.serve(c)
				}()
			}
		}
	}()
	return t, nil
}

// Addr returns the listener's bound address.
func (t *TCPCoordinatorTransport) Addr() string { return t.ln.Addr().String() }

// Close stops accepting, tears down every node connection, and waits
// for all transport goroutines to exit. Idempotent; concurrent ToNode
// callers observe ErrClosed.
func (t *TCPCoordinatorTransport) Close() {
	t.close()
	t.ln.Close()
	t.wg.Wait()
}

// TCPTransport is the node half of the socket carrier: one dialer that
// keeps a single connection to the coordinator alive for a NodeEnd,
// dialing again after the delay the end names whenever a dial fails or
// the connection ends. DialTCP returns before the first connection is
// up: the fleet node rides its local-ranking fallback until the link
// (and the first fleet deploy) lands.
type TCPTransport struct {
	*NodeEnd
	cancel context.CancelFunc // stops the redial loop, a dial and a backoff sleep
	wg     sync.WaitGroup
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
	t := &TCPTransport{NodeEnd: newNodeEnd(id, clock), cancel: cancel}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for ctx.Err() == nil {
			d := net.Dialer{Timeout: dialTimeout}
			nc, _ := d.DialContext(ctx, "tcp", addr)
			redial := t.redialAfter(nc)
			wake := make(chan struct{})
			stop := t.clock.After(redial, func(eventsim.Time) { close(wake) })
			select {
			case <-ctx.Done():
				stop()
			case <-wake:
			}
		}
	}()
	return t, nil
}

// redialAfter serves nc, the dialed connection (nil when the dial
// failed), until it ends, and returns how long to wait before the next
// dial.
func (t *TCPTransport) redialAfter(nc net.Conn) eventsim.Time {
	if nc == nil {
		_, redial := t.dialed(nil)
		return redial
	}
	p := newTCPPeer(nc, &t.end)
	c, redial := t.dialed(p)
	if c == nil { // closed
		nc.Close()
		return redial
	}
	return p.serve(c)
}

// Close stops the dialer — cancelling an in-flight dial or backoff
// sleep — tears down the live connection, and waits for every
// transport goroutine to exit. Idempotent; concurrent publishers
// observe ErrClosed.
func (t *TCPTransport) Close() {
	t.close()
	t.cancel()
	t.wg.Wait()
}
