package fleet

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accturbo/internal/faults"
)

// ChaosProxy is the socket-level fault injector for the TCP transport:
// a TCP relay that sits between nodes and the coordinator and mangles
// the byte stream the way a bad middlebox would — injected stalls,
// single-byte corruption and mid-frame RSTs. It is
// the transport-layer sibling of internal/faults: every fault decision
// is drawn from seeded splitmix64 streams keyed to cumulative BYTE
// OFFSETS within each connection direction, not to read() chunk
// boundaries, so the schedule of faults is a pure function of
// (seed, connection index, direction) even though TCP segmentation is
// not reproducible. ChaosSpec.Plan renders that schedule without
// opening a socket, and internal/manifest pins a render's bytes.
//
// Note the one nondeterminism that remains: connection indices are
// assigned in accept order, so when several nodes race to connect, the
// mapping from node to fault schedule can differ between runs. Tests
// that need a fixed mapping connect one node at a time.
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

func chaosStreamSeed(seed uint64, conn uint64, dir, class uint64) uint64 {
	return faults.DeriveSeed(faults.DeriveSeed(seed, conn*2+dir), class)
}

// chaosGap draws the next inter-event gap: uniform in [1, 2*mean], so
// the mean spacing is ~mean bytes and a gap is never zero.
func chaosGap(rng *faults.Rand, mean int) uint64 {
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
	s := &chaosStream{
		spec:       spec,
		corruptRNG: faults.NewRand(chaosStreamSeed(spec.Seed, conn, dir, chaosClassCorrupt)),
		maskRNG:    faults.NewRand(chaosStreamSeed(spec.Seed, conn, dir, chaosClassMask)),
		resetRNG:   faults.NewRand(chaosStreamSeed(spec.Seed, conn, dir, chaosClassReset)),
		delayRNG:   faults.NewRand(chaosStreamSeed(spec.Seed, conn, dir, chaosClassDelay)),
	}
	if spec.CorruptEvery > 0 {
		s.nextCorrupt = chaosGap(s.corruptRNG, spec.CorruptEvery)
	}
	if spec.ResetEvery > 0 {
		s.nextReset = chaosGap(s.resetRNG, spec.ResetEvery)
	}
	if spec.DelayEvery > 0 {
		s.nextDelay = chaosGap(s.delayRNG, spec.DelayEvery)
	}
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
	spec   ChaosSpec
	target string
	ln     net.Listener

	mu        sync.Mutex
	closed    bool
	conns     map[*chaosConn]struct{}
	connIndex uint64
	wg        sync.WaitGroup

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
		spec:   spec,
		target: target,
		ln:     ln,
		conns:  make(map[*chaosConn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what nodes should dial.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

func (p *ChaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			continue
		}
		idx := p.connIndex
		p.connIndex++
		p.mu.Unlock()

		server, err := net.DialTimeout("tcp", p.target, 2*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		cc := &chaosConn{client: client, server: server}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			cc.abort()
			continue
		}
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
			if stall > 0 {
				time.Sleep(stall)
			}
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
	p.mu.Lock()
	already := p.closed
	p.closed = true
	var conns []*chaosConn
	for cc := range p.conns {
		conns = append(conns, cc)
	}
	p.mu.Unlock()
	if !already {
		p.ln.Close()
		for _, cc := range conns {
			cc.abort()
		}
	}
	p.wg.Wait()
}

// chaosEvent is one planned fault, for the schedule renderer.
type chaosEvent struct {
	offset uint64
	what   string
}

// planHorizon is how many bytes of each connection direction Plan
// renders.
const planHorizon = 1 << 16

// Plan renders the fault schedule the spec would apply to the first
// `conns` connections over the first planHorizon bytes of each
// direction, without opening a socket. The output is a pure function of
// the spec, so internal/manifest's pin of one render (and of another
// seed rendering differently) gates the whole seeded-chaos machinery.
func (spec ChaosSpec) Plan(conns int) string {
	const horizon = planHorizon
	var b strings.Builder
	fmt.Fprintf(&b, "chaos plan seed=%d corrupt=%d reset=%d delay=%d/%s horizon=%d conns=%d\n",
		spec.Seed, spec.CorruptEvery, spec.ResetEvery, spec.DelayEvery, spec.DelayFor, horizon, conns)
	dirName := map[uint64]string{chaosDirC2S: "c->s", chaosDirS2C: "s->c"}
	for conn := 0; conn < conns; conn++ {
		for _, dir := range []uint64{chaosDirC2S, chaosDirS2C} {
			s := newChaosStream(spec, uint64(conn), dir)
			var events []chaosEvent
			if spec.CorruptEvery > 0 {
				for off := s.nextCorrupt; off < horizon; {
					events = append(events, chaosEvent{off, fmt.Sprintf("corrupt mask=0x%02x", s.mask())})
					off += chaosGap(s.corruptRNG, spec.CorruptEvery)
				}
			}
			if spec.ResetEvery > 0 {
				for off := s.nextReset; off < horizon; {
					events = append(events, chaosEvent{off, "reset"})
					off += chaosGap(s.resetRNG, spec.ResetEvery)
				}
			}
			if spec.DelayEvery > 0 {
				for off := s.nextDelay; off < horizon; {
					events = append(events, chaosEvent{off, fmt.Sprintf("delay %s", spec.DelayFor)})
					off += chaosGap(s.delayRNG, spec.DelayEvery)
				}
			}
			sort.Slice(events, func(i, j int) bool {
				if events[i].offset != events[j].offset {
					return events[i].offset < events[j].offset
				}
				return events[i].what < events[j].what
			})
			for _, ev := range events {
				fmt.Fprintf(&b, "conn=%d dir=%s @%d %s\n", conn, dirName[dir], ev.offset, ev.what)
			}
		}
	}
	return b.String()
}
