package fleet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accturbo/internal/faults"
)

// ChaosProxy relays TCP connections from its listen address to a
// target address, the i'th accepted taking connection i's stream faults
// (so nodes that race to connect can swap schedules between runs).
type ChaosProxy struct {
	seed     uint64
	spec     faults.StreamSpec
	target   string
	ln       net.Listener
	accepted chan struct{} // closed when the accept loop has returned
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns map[*chaosConn]struct{}

	stats faults.StreamStats
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
// each accepted connection to target under the stream faults seed and
// spec draw; the spec's other clauses are not the relay's to inject.
func NewChaosProxy(listenAddr, target string, seed uint64, spec faults.Spec) (*ChaosProxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("fleet: chaos proxy listen: %w", err)
	}
	p := &ChaosProxy{
		seed:     seed,
		spec:     spec.Stream,
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
		go p.pump(cc, idx, faults.C2S)
		go p.pump(cc, idx, faults.S2C)
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
	if dir == faults.S2C {
		src, dst = cc.server, cc.client
	}
	stream := faults.NewStream(p.seed, p.spec, idx, dir)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			forward, reset, stall := stream.Process(buf[:n], &p.stats)
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
func (p *ChaosProxy) Stats() faults.StreamStats {
	return faults.StreamStats{
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
