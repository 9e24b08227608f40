package fleet

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accturbo/internal/faults"
)

// ChaosSpec is a seeded fault schedule for the fleet's byte streams —
// stalls, single-byte corruption and mid-frame resets, the way a bad
// middlebox mangles them — applied by ChaosProxy to sockets and by
// SimLink to its connections. Every fault is drawn from seeded
// splitmix64 streams keyed to cumulative byte offsets within each
// connection direction, not to read() chunk boundaries, so the schedule
// is a pure function of (seed, connection index, direction) even though
// TCP segmentation is not reproducible. Plan renders it without opening
// a socket, and internal/manifest pins a render's bytes. Connection
// indices follow accept order, so when several nodes race to connect
// through the proxy, which node gets which schedule can differ between
// runs.
type ChaosSpec struct {
	// Seed drives every stream; same seed, same spec → same schedules.
	Seed uint64
	// CorruptEvery, when > 0, XORs one byte with a nonzero mask at
	// offsets spaced ~CorruptEvery bytes apart (uniform in
	// [1, 2*CorruptEvery]).
	CorruptEvery int
	// ResetEvery, when > 0, forwards the stream up to an offset spaced
	// ~ResetEvery bytes apart and then hard-resets the connection
	// (SO_LINGER 0, so the far side sees an RST mid-frame).
	ResetEvery int
	// DelayEvery/DelayFor, when > 0, stall the relay for DelayFor at
	// offsets spaced ~DelayEvery bytes apart, modeling bufferbloat and
	// stalled middleboxes.
	DelayEvery int
	DelayFor   time.Duration
}

// Stream-seed labels: one per (direction, event-class) so each draw
// sequence is independent of chunk interleaving and of the other
// classes.
const (
	chaosDirC2S = 0
	chaosDirS2C = 1

	chaosClassCorrupt = 1
	chaosClassMask    = 2
	chaosClassReset   = 3
	chaosClassDelay   = 4
)

// chaosGap draws the next inter-event gap: uniform in [1, 2*mean], so
// the mean spacing is ~mean bytes and a gap is never zero. A class with
// mean 0 is off: it draws nothing, and its next offset stays 0.
func chaosGap(rng *faults.Rand, mean int) uint64 {
	if mean <= 0 {
		return 0
	}
	return 1 + rng.Next()%uint64(2*mean)
}

// chaosStream holds the per-direction fault schedule state for one
// relayed connection.
type chaosStream struct {
	spec   ChaosSpec
	offset uint64

	corruptRNG *faults.Rand
	maskRNG    *faults.Rand
	resetRNG   *faults.Rand
	delayRNG   *faults.Rand

	nextCorrupt uint64
	nextReset   uint64
	nextDelay   uint64
}

func newChaosStream(spec ChaosSpec, conn uint64, dir uint64) *chaosStream {
	rng := func(class uint64) *faults.Rand {
		return faults.NewRand(faults.DeriveSeed(faults.DeriveSeed(spec.Seed, conn*2+dir), class))
	}
	s := &chaosStream{
		spec:       spec,
		corruptRNG: rng(chaosClassCorrupt),
		maskRNG:    rng(chaosClassMask),
		resetRNG:   rng(chaosClassReset),
		delayRNG:   rng(chaosClassDelay),
	}
	s.nextCorrupt = chaosGap(s.corruptRNG, spec.CorruptEvery)
	s.nextReset = chaosGap(s.resetRNG, spec.ResetEvery)
	s.nextDelay = chaosGap(s.delayRNG, spec.DelayEvery)
	return s
}

// mask draws the XOR mask for one corruption; never zero, so a corrupt
// event always changes the byte (and therefore always breaks the CRC).
func (s *chaosStream) mask() byte {
	m := byte(s.maskRNG.Next())
	if m == 0 {
		m = 0xff
	}
	return m
}

// process applies the schedule to one chunk in place and returns how
// many bytes to forward, whether to reset the connection afterwards,
// and how long to stall first. Events trigger when the stream's
// cumulative offset crosses their scheduled offset, and only the bytes
// forwarded take faults — k delays among them stall k × DelayFor, and
// nothing past a reset point is corrupted or counted — so chunk sizes
// never shift or thin the schedule.
func (s *chaosStream) process(chunk []byte, counters *ChaosStats) (forward int, reset bool, stall time.Duration) {
	forward = len(chunk)
	if s.spec.ResetEvery > 0 && s.nextReset < s.offset+uint64(forward) {
		// Forward the prefix so the far side is left mid-frame, then RST.
		forward = int(s.nextReset - s.offset)
		reset = true
		s.nextReset += chaosGap(s.resetRNG, s.spec.ResetEvery)
		atomic.AddUint64(&counters.ResetsInjected, 1)
	}
	end := s.offset + uint64(forward)
	for s.spec.DelayEvery > 0 && s.nextDelay < end {
		stall += s.spec.DelayFor
		s.nextDelay += chaosGap(s.delayRNG, s.spec.DelayEvery)
		atomic.AddUint64(&counters.DelaysInjected, 1)
	}
	for s.spec.CorruptEvery > 0 && s.nextCorrupt < end {
		chunk[s.nextCorrupt-s.offset] ^= s.mask()
		atomic.AddUint64(&counters.BytesCorrupted, 1)
		s.nextCorrupt += chaosGap(s.corruptRNG, s.spec.CorruptEvery)
	}
	s.offset = end
	atomic.AddUint64(&counters.BytesForwarded, uint64(forward))
	return forward, reset, stall
}

// ChaosStats counts injected faults and relayed traffic across all
// connections of one proxy.
type ChaosStats struct {
	Connections    uint64
	BytesForwarded uint64
	BytesCorrupted uint64
	ResetsInjected uint64
	DelaysInjected uint64
}

// ChaosProxy relays TCP connections from its listen address to a
// target address, applying a ChaosSpec's faults per direction.
type ChaosProxy struct {
	spec     ChaosSpec
	target   string
	ln       net.Listener
	accepted chan struct{} // closed when the accept loop has returned
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns map[*chaosConn]struct{}

	stats ChaosStats
}

type chaosConn struct {
	client, server net.Conn
	once           sync.Once
}

// abort hard-closes both legs with SO_LINGER 0 so the endpoints see an
// RST, not a tidy FIN — the point is to exercise the transport's reset
// path, not its graceful-close path.
func (c *chaosConn) abort() {
	c.once.Do(func() {
		for _, conn := range []net.Conn{c.client, c.server} {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			conn.Close()
		}
	})
}

// NewChaosProxy listens on listenAddr (":0" picks a port) and relays
// each accepted connection to target under the spec's faults.
func NewChaosProxy(listenAddr, target string, spec ChaosSpec) (*ChaosProxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("fleet: chaos proxy listen: %w", err)
	}
	p := &ChaosProxy{
		spec:     spec,
		target:   target,
		ln:       ln,
		accepted: make(chan struct{}),
		conns:    make(map[*chaosConn]struct{}),
	}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what nodes should dial.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// acceptLoop relays each connection until the listener closes;
// connection idx draws the idx'th fault schedules, a failed dial to the
// target using its index up.
func (p *ChaosProxy) acceptLoop() {
	defer close(p.accepted)
	for idx := uint64(0); ; idx++ {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.DialTimeout("tcp", p.target, 2*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		cc := &chaosConn{client: client, server: server}
		p.mu.Lock()
		p.conns[cc] = struct{}{}
		p.mu.Unlock()
		atomic.AddUint64(&p.stats.Connections, 1)
		p.wg.Add(2)
		go p.pump(cc, idx, chaosDirC2S)
		go p.pump(cc, idx, chaosDirS2C)
	}
}

// pump relays one direction of one connection through its fault
// schedule. Either direction injecting a reset aborts the whole
// connection (an RST is connection-scoped).
func (p *ChaosProxy) pump(cc *chaosConn, idx uint64, dir uint64) {
	defer p.wg.Done()
	defer func() {
		cc.abort()
		p.mu.Lock()
		delete(p.conns, cc)
		p.mu.Unlock()
	}()
	src, dst := cc.client, cc.server
	if dir == chaosDirS2C {
		src, dst = cc.server, cc.client
	}
	stream := newChaosStream(p.spec, idx, dir)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			forward, reset, stall := stream.process(buf[:n], &p.stats)
			time.Sleep(stall)
			if forward > 0 {
				if _, werr := dst.Write(buf[:forward]); werr != nil {
					return
				}
			}
			if reset {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// Stats snapshots the proxy's counters.
func (p *ChaosProxy) Stats() ChaosStats {
	return ChaosStats{
		Connections:    atomic.LoadUint64(&p.stats.Connections),
		BytesForwarded: atomic.LoadUint64(&p.stats.BytesForwarded),
		BytesCorrupted: atomic.LoadUint64(&p.stats.BytesCorrupted),
		ResetsInjected: atomic.LoadUint64(&p.stats.ResetsInjected),
		DelaysInjected: atomic.LoadUint64(&p.stats.DelaysInjected),
	}
}

// Close stops the proxy, resets every relayed connection, and waits for
// all relay goroutines to exit. Idempotent.
func (p *ChaosProxy) Close() {
	p.ln.Close()
	<-p.accepted // no connection is added from here on
	p.mu.Lock()
	for cc := range p.conns {
		cc.abort()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// planHorizon is how many bytes of each connection direction Plan
// renders.
const planHorizon = 1 << 16

// Plan renders the fault schedule the spec would apply to the first
// `conns` connections over the first planHorizon bytes of each
// direction, without opening a socket: it runs each direction's stream
// over zero bytes one at a time, so it renders what process does. The
// output is a pure function of the spec, so internal/manifest's pin of
// one render (and of another seed rendering differently) gates the whole
// seeded-chaos machinery.
func (spec ChaosSpec) Plan(conns int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos plan seed=%d corrupt=%d reset=%d delay=%d/%s horizon=%d conns=%d\n",
		spec.Seed, spec.CorruptEvery, spec.ResetEvery, spec.DelayEvery, spec.DelayFor, planHorizon, conns)
	for conn := 0; conn < conns; conn++ {
		for dir, name := range []string{chaosDirC2S: "c->s", chaosDirS2C: "s->c"} {
			s, st := newChaosStream(spec, uint64(conn), uint64(dir)), &ChaosStats{}
			for off := 0; off < planHorizon; off++ {
				// A reset forwards nothing; the byte it lands on takes the
				// other faults on the next call.
				one, delays := []byte{0}, st.DelaysInjected
				_, reset, _ := s.process(one, st)
				if reset {
					s.process(one, st)
				}
				if one[0] != 0 {
					fmt.Fprintf(&b, "conn=%d dir=%s @%d corrupt mask=0x%02x\n", conn, name, off, one[0])
				}
				if st.DelaysInjected > delays {
					fmt.Fprintf(&b, "conn=%d dir=%s @%d delay %s\n", conn, name, off, spec.DelayFor)
				}
				if reset {
					fmt.Fprintf(&b, "conn=%d dir=%s @%d reset\n", conn, name, off)
				}
			}
		}
	}
	return b.String()
}
