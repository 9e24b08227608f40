package fleet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
)

// manualClock is a core.Clock that moves only when a test advances it,
// so a transport on it sends no heartbeat, sheds no peer and ends no
// backoff sleep until the test says so. Callbacks run on the advancing
// goroutine, in time order, each at its own time; Now may be read from
// any goroutine.
type manualClock struct {
	mu     sync.Mutex
	now    eventsim.Time
	timers []*manualTimer
}

type manualTimer struct {
	at, every eventsim.Time // every 0: a one-shot
	fn        func(now eventsim.Time)
}

func (c *manualClock) Now() eventsim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) After(delay eventsim.Time, fn func(now eventsim.Time)) func() {
	return c.add(delay, 0, fn)
}

func (c *manualClock) Every(interval eventsim.Time, fn func(now eventsim.Time)) func() {
	return c.add(interval, interval, fn)
}

func (c *manualClock) add(delay, every eventsim.Time, fn func(now eventsim.Time)) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	tm := &manualTimer{at: c.now + delay, every: every, fn: fn}
	c.timers = append(c.timers, tm)
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.timers = slices.DeleteFunc(c.timers, func(x *manualTimer) bool { return x == tm })
	}
}

// advance moves the clock d forward, running every timer that falls due
// on the way.
func (c *manualClock) advance(d eventsim.Time) {
	c.mu.Lock()
	end := c.now + d
	for {
		var next *manualTimer
		for _, tm := range c.timers {
			if tm.at <= end && (next == nil || tm.at < next.at) {
				next = tm
			}
		}
		if next == nil {
			break
		}
		now := next.at
		c.now = now
		if next.every > 0 {
			next.at += next.every
		} else {
			c.timers = slices.DeleteFunc(c.timers, func(x *manualTimer) bool { return x == next })
		}
		c.mu.Unlock()
		next.fn(now)
		c.mu.Lock()
	}
	c.now = end
	c.mu.Unlock()
}

// sleeping reports whether a one-shot timer — a node's backoff sleep —
// is pending, and when it is due.
func (c *manualClock) sleeping() (due eventsim.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tm := range c.timers {
		if tm.every == 0 && (!ok || tm.at < due) {
			due, ok = tm.at, true
		}
	}
	return due, ok
}

// wake ends a pending backoff sleep, moving the clock to its end; a
// no-op when none is pending.
func (c *manualClock) wake() {
	if due, ok := c.sleeping(); ok {
		c.advance(due - c.Now())
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within 10s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkGoroutines waits for the goroutine count to return to base —
// the transport's no-leak contract after Close.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d alive, base %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rawHello opens a bare TCP connection to a coordinator transport and
// performs the hello handshake for node id — a node impersonator for
// protocol-violation tests.
func rawHello(t *testing.T, addr string, id uint32) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	if _, err := conn.Write(EncodeHello(id)); err != nil {
		t.Fatalf("raw hello: %v", err)
	}
	return conn
}

// peerOf is the socket behind node id's joined connection on co.
func peerOf(co *TCPCoordinatorTransport, id uint32) *tcpPeer {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.m.peers[id].w.(*tcpPeer)
}

// TestReadFrameRejectsOversizedLength: a hostile length prefix is
// refused from the 15 header bytes alone — the reassembler returns the
// limit error rather than waiting to buffer gigabytes that will never
// arrive — and the limit itself is allowed: the header passes, and the
// reassembler holds the 15 bytes it has and nothing sized from the
// prefix.
func TestReadFrameRejectsOversizedLength(t *testing.T) {
	header := func(plen uint32) []byte {
		head := make([]byte, 0, frameOverhead-4)
		head = append(head, wireMagic...)
		head = binary.LittleEndian.AppendUint16(head, wireVersion)
		head = append(head, MsgSnapshot)
		return binary.LittleEndian.AppendUint32(head, plen)
	}
	var r reassembler
	if _, err := r.feed(header(maxFramePayload+1), nil); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized length prefix: got %v, want the payload-limit error", err)
	}
	r = reassembler{}
	var got [][]byte
	held := allocated(func() {
		var err error
		if got, err = r.feed(header(maxFramePayload), nil); err != nil {
			t.Errorf("at-limit header refused: %v", err)
		}
	})
	if len(got) != 0 || len(r.buf) != headerLen || held > 1<<10 {
		t.Fatalf("at-limit header: %d frames, %d bytes held, %d allocated", len(got), len(r.buf), held)
	}
}

// TestReadFrameRejectsForeignStream: bad magic and foreign versions are
// refused from the header, before any payload arrives.
func TestReadFrameRejectsForeignStream(t *testing.T) {
	valid := EncodeHello(1)
	badMagic := append([]byte{}, valid[:headerLen]...)
	badMagic[0] ^= 0xff
	var r reassembler
	if _, err := r.feed(badMagic, nil); err == nil {
		t.Fatal("bad magic accepted")
	}
	badVersion := append([]byte{}, valid[:headerLen]...)
	badVersion[len(wireMagic)] = 0xee
	r = reassembler{}
	if _, err := r.feed(badVersion, nil); err == nil {
		t.Fatal("foreign version accepted")
	}
}

// TestBackoffSeededDeterministic: the reconnect schedule is a pure
// function of its seed — equal seeds replay identical delays, distinct
// seeds diverge, and every delay respects the bounds.
func TestBackoffSeededDeterministic(t *testing.T) {
	mk := func(seed uint64) *backoff {
		return &backoff{rng: faults.NewRand(faults.DeriveSeed(seed, 3))}
	}
	a, b := mk(42), mk(42)
	var seqA, seqB []eventsim.Time
	for i := 0; i < 20; i++ {
		da, db := a.next(), b.next()
		seqA, seqB = append(seqA, da), append(seqB, db)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v != %v", i, da, db)
		}
		if da < backoffMin/2 || da >= backoffMax {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, da, backoffMin/2, backoffMax)
		}
	}
	// The schedule escalates: late delays jitter near the cap, so the
	// max over the tail must exceed the first (half-of-min-bounded) one.
	if seqA[19] < seqA[0] && seqA[18] < seqA[0] && seqA[17] < seqA[0] {
		t.Fatalf("backoff never escalated: first %v, tail %v", seqA[0], seqA[17:])
	}
	c := mk(43)
	diverged := false
	for i := 0; i < 20; i++ {
		if c.next() != seqA[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical schedules")
	}
	// reset re-arms the escalation.
	a.attempt = 0
	if d := a.next(); d >= backoffMin {
		t.Fatalf("post-reset delay %v did not drop below the minimum", d)
	}
}

// TestTCPRoundTrip: hello handshake, snapshots up, deploys down, and
// per-node last-seen ages on the coordinator — the basic contract of
// the socket backend, over real loopback TCP.
func TestTCPRoundTrip(t *testing.T) {
	base := runtime.NumGoroutine()
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var snaps []*Snapshot
	var froms []uint32
	co.HandleCoordinator(func(from uint32, frame []byte) {
		s, err := DecodeSnapshot(frame)
		if err != nil {
			t.Errorf("coordinator received undecodable snapshot: %v", err)
			return
		}
		mu.Lock()
		froms = append(froms, from)
		snaps = append(snaps, s)
		mu.Unlock()
	})

	nt, err := DialTCP(co.Addr(), 7, clk)
	if err != nil {
		t.Fatal(err)
	}
	var deployMu sync.Mutex
	var deploys []*Deploy
	nt.HandleNode(7, func(frame []byte) {
		d, err := DecodeDeploy(frame)
		if err != nil {
			t.Errorf("node received undecodable deploy: %v", err)
			return
		}
		deployMu.Lock()
		deploys = append(deploys, d)
		deployMu.Unlock()
	})

	waitUntil(t, "node connected", nt.Connected)
	if err := nt.ToCoordinator(7, EncodeSnapshot(&Snapshot{Node: 7, Seq: 1, Infos: slotInfos(100, 200)})); err != nil {
		t.Fatalf("publish: %v", err)
	}
	waitUntil(t, "snapshot arrival", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(snaps) > 0
	})
	mu.Lock()
	if froms[0] != 7 || snaps[0].Node != 7 || snaps[0].Seq != 1 {
		t.Fatalf("snapshot arrived as from=%d node=%d seq=%d, want 7/7/1", froms[0], snaps[0].Node, snaps[0].Seq)
	}
	mu.Unlock()

	if err := co.ToNode(7, EncodeDeploy(&Deploy{Epoch: 1, QueueOf: []int{0, 1}, Rank: []float64{2, 1}})); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	waitUntil(t, "deploy arrival", func() bool {
		deployMu.Lock()
		defer deployMu.Unlock()
		return len(deploys) > 0
	})
	deployMu.Lock()
	if deploys[0].Epoch != 1 || len(deploys[0].QueueOf) != 2 {
		t.Fatalf("deploy arrived as %+v", deploys[0])
	}
	deployMu.Unlock()

	// Sends to an absent node are counted drops, not errors.
	if err := co.ToNode(42, EncodeDeploy(&Deploy{Epoch: 2})); err != nil {
		t.Fatalf("ToNode(absent) = %v, want nil", err)
	}
	if st := co.Stats(); st.DropsNoPeer == 0 {
		t.Fatalf("no counted drop for an absent node: %+v", st)
	}

	// The clock has not moved since the node connected.
	if ages := co.LastSeen(); len(ages) != 1 || ages[7] != 0 {
		t.Fatalf("LastSeen = %v, want node 7 seen just now", ages)
	}

	nt.Close()
	co.Close()
	checkGoroutines(t, base)
}

// TestTCPHeartbeatsKeepIdleLinkAlive: with no traffic at all, the
// heartbeat exchange keeps the link up for many silence bounds — an idle
// fleet is not a dead fleet. On the simulated link each tick's beacon
// lands a millisecond later on both sides: one a beat each way, for four
// silence bounds, with no reconnect and no shed.
func TestTCPHeartbeatsKeepIdleLinkAlive(t *testing.T) {
	eng := eventsim.New()
	link := NewSimLink(eng)
	co, nt := link.Coordinator(), link.Node(2)
	for b := uint64(1); b <= 4*silentBeats; b++ {
		eng.RunUntil(eventsim.Time(b)*beat + simLatency)
		if ns, cs := nt.Stats(), co.Stats(); ns.HeartbeatsIn != b || cs.HeartbeatsIn != b || !ns.Connected {
			t.Fatalf("beat %d: node %+v, coordinator %+v; want %d heartbeats each way", b, ns, cs, b)
		}
	}
	if st := nt.Stats(); st.Connects != 1 || st.Dials != 1 {
		t.Fatalf("idle link was re-established: %+v", st)
	}
	if _, ok := co.LastSeen()[2]; !ok || co.Stats().PeersShed != 0 {
		t.Fatalf("idle peer was shed by the coordinator: %+v, ages %v", co.Stats(), co.LastSeen())
	}
}

// TestTCPSilentPeerShed: a peer that handshakes and then goes silent
// (no heartbeats — a wedged process, not a closed socket) survives every
// tick up to silentBeats beats, is shed on the first tick after, and
// disappears from the liveness view; a connection that never says hello
// is dropped on the same tick, as a failed handshake. The socket pump's
// half of the silence rule.
func TestTCPSilentPeerShed(t *testing.T) {
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	conn := rawHello(t, co.Addr(), 9)
	defer conn.Close()
	mute, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	waitUntil(t, "handshake", func() bool {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.m.st.joins == 1 && len(co.m.conns) == 2
	})
	for b := 1; b <= silentBeats; b++ {
		clk.advance(beat)
		if st := co.Stats(); st.PeersShed != 0 || st.HandshakeFails != 0 || st.Connected != 1 {
			t.Fatalf("shed after %d silent beats: %+v", b, st)
		}
	}
	clk.advance(beat)
	if st := co.Stats(); st.PeersShed != 1 || st.HandshakeFails != 1 || len(co.LastSeen()) != 0 {
		t.Fatalf("not shed after %d silent beats: %+v, ages %v", silentBeats+1, st, co.LastSeen())
	}
}

// waitStuck waits until p's writer goroutine is blocked in a write: one
// is pending, and no frame has gone out for 50 ms.
func waitStuck(t *testing.T, p *tcpPeer) {
	t.Helper()
	waitUntil(t, "writer blocked", func() bool {
		out := p.e.out.Load()
		time.Sleep(50 * time.Millisecond)
		return p.writeSince.Load() != notWriting && p.e.out.Load() == out
	})
}

// TestTCPLivenessBounds pins the tick's silence bound on the simulated
// link: LastSeen is the exact clock age of the last frame; a peer heard
// from every beat is never shed; and once a partition silences it, it is
// shed on the first tick more than silentBeats beats after its last
// frame, and on no earlier one.
func TestTCPLivenessBounds(t *testing.T) {
	eng := eventsim.New()
	link := NewSimLink(eng)
	co := link.Coordinator()
	link.Node(9)
	ms := eventsim.Millisecond

	eng.RunUntil(beat / 2)
	if age := co.LastSeen()[9]; age != (beat/2 - simLatency).Duration() {
		t.Fatalf("half a beat in, LastSeen reads %v: the hello arrived after %v", age, simLatency.Duration())
	}
	const heard = 4 * silentBeats
	for b := 1; b <= heard; b++ {
		eng.RunUntil(eventsim.Time(b)*beat + 500*ms)
		if age := co.LastSeen()[9]; age != (500*ms - simLatency).Duration() {
			t.Fatalf("beat %d: LastSeen reads %v, want the age of this beat's heartbeat", b, age)
		}
		if st := co.Stats(); st.PeersShed != 0 || st.Connected != 1 {
			t.Fatalf("a peer heard from every beat was shed at beat %d: %+v", b, st)
		}
	}
	link.SetUp(false) // the last heartbeat arrived at heard beats + simLatency
	eng.RunUntil((heard + silentBeats) * beat)
	if st := co.Stats(); st.PeersShed != 0 {
		t.Fatalf("shed %v after the last frame: %+v", silentBeats*beat-simLatency, st)
	}
	eng.RunUntil((heard + silentBeats + 1) * beat)
	if st := co.Stats(); st.PeersShed != 1 || len(co.LastSeen()) != 0 {
		t.Fatalf("not shed on the first tick past the silence bound: %+v", st)
	}
}

// TestTCPCRCResetAndRehandshake: a frame that fails verification resets
// the connection — it never reaches the coordinator handler — and the
// same node can come straight back with a clean hello.
func TestTCPCRCResetAndRehandshake(t *testing.T) {
	co, err := ListenTCP("127.0.0.1:0", &manualClock{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	var delivered sync.Map
	co.HandleCoordinator(func(from uint32, frame []byte) {
		if s, err := DecodeSnapshot(frame); err == nil {
			delivered.Store(s.Seq, true)
		}
	})

	conn := rawHello(t, co.Addr(), 9)
	defer conn.Close()
	corrupt := EncodeSnapshot(&Snapshot{Node: 9, Seq: 1, Infos: slotInfos(10, 20)})
	corrupt[len(corrupt)-6] ^= 0x40 // payload byte: framing intact, CRC broken
	if _, err := conn.Write(corrupt); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "CRC reset", func() bool { return co.Stats().CRCResets >= 1 })
	if _, ok := delivered.Load(uint64(1)); ok {
		t.Fatal("corrupt frame reached the coordinator handler")
	}
	// The connection is dead: the next read observes it.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}

	// Clean re-handshake: a fresh connection for the same id works.
	conn2 := rawHello(t, co.Addr(), 9)
	defer conn2.Close()
	if _, err := conn2.Write(EncodeSnapshot(&Snapshot{Node: 9, Seq: 2, Infos: slotInfos(30, 40)})); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "post-reset snapshot delivery", func() bool {
		_, ok := delivered.Load(uint64(2))
		return ok
	})
}

// TestTCPReconnectAfterCoordinatorRestart: killing the coordinator
// flips the node to counted-drop publishing (never an error), and a
// coordinator reborn on the same address gets a fresh handshake and
// the frames flow again — the recovery half of the fallback arc.
func TestTCPReconnectAfterCoordinatorRestart(t *testing.T) {
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	addr := co.Addr()
	nt, err := DialTCP(addr, 3, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	waitUntil(t, "initial connect", nt.Connected)

	co.Close()
	waitUntil(t, "node noticed the outage", func() bool { return !nt.Connected() })
	if err := nt.ToCoordinator(3, EncodeSnapshot(&Snapshot{Node: 3, Seq: 1})); err != nil {
		t.Fatalf("publish while down = %v, want nil (counted drop)", err)
	}
	if st := nt.Stats(); st.DropsDisconnected == 0 {
		t.Fatalf("publish while down was not counted: %+v", st)
	}

	co2, err := ListenTCP(addr, clk)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer co2.Close()
	var got sync.Map
	co2.HandleCoordinator(func(from uint32, frame []byte) {
		if s, err := DecodeSnapshot(frame); err == nil {
			got.Store(s.Seq, from)
		}
	})
	waitUntil(t, "reconnect", func() bool {
		clk.wake()
		return nt.Connected() && nt.Stats().Connects >= 2
	})
	if err := nt.ToCoordinator(3, EncodeSnapshot(&Snapshot{Node: 3, Seq: 2, Infos: slotInfos(5, 6)})); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
	waitUntil(t, "post-recovery delivery", func() bool {
		_, ok := got.Load(uint64(2))
		return ok
	})
}

// TestTCPRestartedPeersAdopted is the restart arc over real sockets, on
// TestTCPReconnectAfterCoordinatorRestart's shape with a Coordinator and
// a Node on the two halves. A coordinator reborn on the same address
// counts epochs from 1 again: the first deployment it gets through to a
// node that fell back is applied, not held off until it has broadcast as
// often as the dead one. Then the node is reborn under its id, counting
// sequences from 1 again: its hello makes the coordinator merge its first
// snapshot instead of rejecting it as a replay.
func TestTCPRestartedPeersAdopted(t *testing.T) {
	clk := &manualClock{}
	ccfg := CoordinatorConfig{Slots: 2, NumQueues: 2, Ranking: core.ByThroughput, Distance: cluster.Manhattan}
	ncfg := NodeConfig{Slots: 2, NumQueues: 2}
	rt := simRT()
	rt.PollInterval = eventsim.FromDuration(10 * time.Millisecond) // a 30 ms staleness bound
	epoch := time.Now()
	now := func() eventsim.Time { return eventsim.FromDuration(time.Since(epoch)) }

	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	addr := co.Addr()
	if _, err := NewCoordinator(co.CoordinatorEnd, ccfg); err != nil {
		t.Fatal(err)
	}
	nt, err := DialTCP(addr, 3, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { nt.Close() }()
	node, err := NewNode(3, nt.NodeEnd, now, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	// pollUntil polls every 2 ms until cond holds.
	pollUntil := func(node *Node, what string, cond func() bool) {
		t.Helper()
		waitUntil(t, what, func() bool {
			node.Rank(now(), slotInfos(1000, 600), []int{0, 0}, rt)
			return cond()
		})
	}
	pollUntil(node, "20 epochs applied", func() bool { return node.Source() == "fleet" && node.Stats().Epoch >= 20 })

	co.Close()
	pollUntil(node, "fallback after the coordinator died", node.RankingDegraded)
	co2, err := ListenTCP(addr, clk)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer co2.Close()
	coord2, err := NewCoordinator(co2.CoordinatorEnd, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "reconnect", func() bool {
		clk.wake()
		return nt.Connected() && nt.Stats().Connects >= 2
	})
	in := nt.Stats().FramesIn
	node.Rank(now(), slotInfos(1000, 600), []int{0, 0}, rt)
	waitUntil(t, "the new coordinator's first deployment", func() bool { return nt.Stats().FramesIn > in })
	node.Rank(now(), slotInfos(1000, 600), []int{0, 0}, rt)
	if held := node.Stats().Epoch; node.Source() != "fleet" || held > coord2.Stats().Epoch {
		t.Fatalf("one poll after the new coordinator's first deployment: source %q, held epoch %d, coordinator %+v",
			node.Source(), held, coord2.Stats())
	}

	nt.Close()
	before := coord2.Stats()
	if nt, err = DialTCP(addr, 3, clk); err != nil {
		t.Fatal(err)
	}
	if node, err = NewNode(3, nt.NodeEnd, now, ncfg); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "reborn node connected", nt.Connected)
	pollUntil(node, "reborn node on the fleet ranking", func() bool { return node.Source() == "fleet" })
	if st := coord2.Stats(); st.Rejected != before.Rejected || st.Merges == before.Merges {
		t.Fatalf("reborn node's snapshots: coordinator went %+v -> %+v, want merges and no rejection", before, st)
	}
}

// TestTCPCloseWhileReconnecting: Close during the dial/backoff cycle —
// nobody listening on the target — returns promptly and leaks nothing.
// The clock never ends a sleep on its own, so a Close that did not end
// it would never return.
func TestTCPCloseWhileReconnecting(t *testing.T) {
	base := runtime.NumGoroutine()
	// A port with no listener: bind, read the address, release.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	for iter := 0; iter < 8; iter++ {
		clk := &manualClock{}
		nt, err := DialTCP(addr, 5, clk)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(iter) * 3 * time.Millisecond) // land in dial and backoff states
		if iter%2 == 1 {
			clk.wake() // and on a redial the sleep just ended
		}
		start := time.Now()
		nt.Close()
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("Close during reconnect took %v", d)
		}
		nt.Close() // idempotent
		if err := nt.ToCoordinator(5, EncodeHeartbeat(5)); err != ErrClosed {
			t.Fatalf("publish after Close = %v, want ErrClosed", err)
		}
	}
	checkGoroutines(t, base)
}

// TestTCPBackoffSchedule: a node redials on exactly the seeded
// schedule. Against a partitioned link, Dials goes up when the clock
// passes each delay of the backoff stream for the node's id, and not a
// nanosecond earlier; a completed handshake restarts the schedule from
// the minimum once the connection is shed; and a closed end dials no
// more.
func TestTCPBackoffSchedule(t *testing.T) {
	eng := eventsim.New()
	link := NewSimLink(eng)
	link.SetUp(false)
	const id = 5
	want := &backoff{rng: faults.NewRand(faults.DeriveSeed(jitterSeed, id))}
	nt := link.Node(id)
	// sleep checks that the node dials again exactly d from now.
	sleep := func(d eventsim.Time) {
		t.Helper()
		dials := nt.Stats().Dials
		eng.RunUntil(eng.Now() + d - 1)
		if got := nt.Stats().Dials; got != dials {
			t.Fatalf("after dial %d: redialed before its %v sleep was over", dials, d)
		}
		eng.RunUntil(eng.Now() + 1)
		if got := nt.Stats().Dials; got != dials+1 {
			t.Fatalf("after dial %d: no redial %v later", dials, d)
		}
	}
	for i := 0; i < 10; i++ { // far enough to reach backoffMax
		sleep(want.next())
	}
	link.SetUp(true)
	sleep(want.next())
	if !nt.Connected() || nt.Stats().Connects != 1 {
		t.Fatalf("the dial after the heal did not connect: %+v", nt.Stats())
	}

	link.SetUp(false)
	for nt.Connected() { // the shed is on a tick, and so is its redial's sleep
		eng.RunUntil((eng.Now()/beat + 1) * beat)
	}
	want.attempt = 0
	sleep(want.next())

	nt.close()
	dials := nt.Stats().Dials
	eng.RunUntil(eng.Now() + 2*backoffMax)
	if st := nt.Stats(); st.Dials != dials || st.Connects != 1 {
		t.Fatalf("stats %+v after close, want %d dials and exactly the one handshake", st, dials)
	}
}

// TestTCPCloseWhilePublishing is the dial/close race gate for the
// socket backend: publishers hammer ToCoordinator, and a broadcaster ToNode, while
// Close tears both halves down. The frames are large enough that most
// of them are mid inline write when it happens. Every interleaving must
// end in nil (sent or counted drop) or ErrClosed — no panic, no
// deadlock, no leak, which -race verifies.
func TestTCPCloseWhilePublishing(t *testing.T) {
	base := runtime.NumGoroutine()
	up := EncodeSnapshot(&Snapshot{Node: 4, Seq: 1, Infos: wideInfos(64, 16)})
	down := EncodeDeploy(&Deploy{Epoch: 1, QueueOf: make([]int, 4096), Rank: make([]float64, 4096)})
	for iter := 0; iter < 8; iter++ {
		clk := &manualClock{}
		co, err := ListenTCP("127.0.0.1:0", clk)
		if err != nil {
			t.Fatal(err)
		}
		nt, err := DialTCP(co.Addr(), 4, clk)
		if err != nil {
			t.Fatal(err)
		}
		if iter%2 == 0 {
			waitUntil(t, "connect", nt.Connected) // also race the connected path
		}
		var wg sync.WaitGroup
		hammer := func(what string, send func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := send(); err != nil && err != ErrClosed {
						t.Errorf("%s: %v", what, err)
						return
					}
				}
			}()
		}
		for p := 0; p < 4; p++ {
			hammer("publish", func() error { return nt.ToCoordinator(4, up) })
		}
		hammer("broadcast", func() error { return co.ToNode(4, down) })
		time.Sleep(time.Duration(iter) * 200 * time.Microsecond)
		if iter%4 < 2 {
			nt.Close()
			co.Close()
		} else {
			co.Close()
			nt.Close()
		}
		wg.Wait()
		if err := nt.ToCoordinator(4, up); err != ErrClosed {
			t.Fatalf("publish after Close = %v, want ErrClosed", err)
		}
		if err := co.ToNode(4, down); err != ErrClosed {
			t.Fatalf("broadcast after Close = %v, want ErrClosed", err)
		}
	}
	checkGoroutines(t, base)
}

// wideInfos is a snapshot of the given geometry with nothing in it: a
// frame of a chosen size.
func wideInfos(slots, features int) []cluster.Info {
	infos := make([]cluster.Info, slots)
	for i := range infos {
		infos[i] = cluster.Info{ID: i, Active: true, Ranges: make([]cluster.Range, features), NominalCardinality: make([]int, features)}
	}
	return infos
}

// TestTCPStalledReaderNeverBlocksSender: a peer that handshakes and then
// never reads fills the socket, and from then on the transport's
// contract is all there is — sends return at once, the bounded queue
// overflows into counted drops, and the writer goroutine's blocked
// write sheds the peer stuckBeats beats later. What the peer finds in
// its socket afterwards is whole CRC-valid frames in send order, which
// it can only be if a write the kernel took part of was finished by the
// writer goroutine ahead of everything queued behind it.
func TestTCPStalledReaderNeverBlocksSender(t *testing.T) {
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	conn := rawHello(t, co.Addr(), 9)
	defer conn.Close()
	waitUntil(t, "handshake", func() bool { return co.Stats().Accepted == 1 })

	// ~210 KB a frame — more than one socket buffer segment, so the
	// kernel takes part of one when it runs out of room — and far more of
	// them than loopback's socket buffers hold. A call blocked on the
	// socket would not return before the peer is shed, and the clock does
	// not move until the sends are done; a call the scheduler merely took
	// the CPU from is over in milliseconds, and a loaded two-core box
	// does that to a few.
	// Each send is a copy of one frame with its Seq and CRC rewritten: the
	// encoder is slow under -race.
	template := EncodeSnapshot(&Snapshot{Node: 9, Infos: wideInfos(256, 64)})
	const sends = 2000
	var slow int
	var worst time.Duration
	for seq := uint64(1); seq <= sends; seq++ {
		frame := bytes.Clone(template)
		binary.LittleEndian.PutUint64(frame[headerLen+4:], seq)
		binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[:len(frame)-4]))
		t0 := time.Now()
		if err := co.ToNode(9, frame); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
		d := time.Since(t0)
		if d > 5*time.Millisecond {
			slow++
		}
		worst = max(worst, d)
	}
	if slow > sends/100 || worst > 100*time.Millisecond {
		t.Fatalf("%d of %d sends took over 5ms, the slowest %v: the sender waited for the socket", slow, sends, worst)
	}
	if st := co.Stats(); st.DropsQueueFull == 0 {
		t.Fatalf("%d sends to a stalled peer and no queue overflow counted: %+v", sends, st)
	}
	p := peerOf(co, 9)
	waitStuck(t, p)
	if since := eventsim.Time(p.writeSince.Load()); since != clk.Now() {
		t.Fatalf("the stuck write began at %v, not at %v", since, clk.Now())
	}
	for b := 1; b <= stuckBeats; b++ {
		clk.advance(beat)
		if shed := co.Stats().PeersShed; b < stuckBeats && shed != 0 {
			t.Fatalf("shed with a write pending for %d beats", b)
		} else if b == stuckBeats && shed != 1 {
			t.Fatalf("stalled peer not shed %d beats into a stuck write: %+v", stuckBeats, co.Stats())
		}
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var r reassembler
	var last uint64
	whole := 0
	buf := make([]byte, readBuffer)
	for {
		n, err := conn.Read(buf)
		frames, ferr := r.feed(buf[:n], nil)
		if ferr != nil {
			t.Fatalf("after %d whole frames: %v", whole, ferr)
		}
		for _, raw := range frames {
			snap, err := DecodeSnapshot(raw)
			if err != nil {
				t.Fatalf("frame %d on the wire is torn: %v", whole, err)
			}
			if snap.Seq <= last {
				t.Fatalf("frame %d carries seq %d after seq %d", whole, snap.Seq, last)
			}
			last = snap.Seq
			whole++
		}
		if err != nil {
			break // the shed cut the stream, possibly mid-frame
		}
	}
	if got := co.Stats().FramesOut; uint64(whole) != got {
		t.Fatalf("peer drained %d whole frames, FramesOut = %d", whole, got)
	}
	if whole < 4 {
		t.Fatalf("peer drained only %d frames", whole)
	}
}

// TestTCPSendOrderMixedPaths: one sender's frames arrive in the order
// sent, none missing, whichever path each took. The test holds the
// peer's write mutex to stand in for a busy writer goroutine — frames
// sent meanwhile queue — and sends the next run the moment it lets go,
// while the writer is still draining: those must queue behind, and once
// it has drained the inline path resumes. FramesOut counts them and the
// hello.
func TestTCPSendOrderMixedPaths(t *testing.T) {
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	var mu sync.Mutex
	var got []uint64
	co.HandleCoordinator(func(from uint32, frame []byte) {
		s, err := DecodeSnapshot(frame)
		if err != nil {
			t.Errorf("undecodable snapshot dispatched: %v", err)
			return
		}
		mu.Lock()
		got = append(got, s.Seq)
		mu.Unlock()
	})
	nt, err := DialTCP(co.Addr(), 5, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	waitUntil(t, "node connected", nt.Connected)
	nt.mu.Lock()
	p := nt.m.conns[0].w.(*tcpPeer)
	nt.mu.Unlock()

	var seq uint64
	next := func() []byte {
		seq++
		return EncodeSnapshot(&Snapshot{Node: 5, Seq: seq, Infos: slotInfos(seq, seq)})
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			if err := nt.ToCoordinator(5, next()); err != nil {
				t.Fatalf("send %d: %v", seq, err)
			}
		}
	}
	for round := 0; round < 50; round++ {
		send(3) // writer idle
		p.wmu.Lock()
		send(sendQueueDepth / 4) // writer busy
		p.wmu.Unlock()
		send(sendQueueDepth / 4) // writer draining
		waitUntil(t, "writer drained", func() bool { return p.queued.Load() == 0 })

		// A short inline write, staged by hand since loopback takes small
		// frames whole: half a frame on the wire, the rest left in head, and
		// frames queuing behind it before the writer goroutine is woken.
		p.wmu.Lock()
		torn := next()
		if _, err := p.conn.Write(torn[:len(torn)/2]); err != nil {
			t.Fatal(err)
		}
		p.head = torn[len(torn)/2:]
		p.queued.Add(1)
		send(sendQueueDepth / 4)
		p.wmu.Unlock()
		waitUntil(t, "writer drained", func() bool { return p.queued.Load() == 0 })
	}
	waitUntil(t, "every frame delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return uint64(len(got)) == seq
	})
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("delivery %d carries seq %d", i+1, s)
		}
	}
	if st := nt.Stats(); st.DropsQueueFull != 0 || st.FramesOut != seq+1 {
		t.Fatalf("sent %d frames and the hello on a live link, stats %+v", seq, st)
	}
}

// TestTCPConcurrentSendersRace: eight goroutines send to one peer at
// once, inline and queued writes interleaving under -race. Every frame
// that was not a counted drop arrives whole (a torn one would fail its
// CRC and reset the link), each sender's frames arrive in its order,
// and FramesOut is exactly the number received, plus the hello.
func TestTCPConcurrentSendersRace(t *testing.T) {
	const senders, each = 8, 400
	// The clock never moves: however long the reader takes over 3200
	// wide snapshots under -race, no write reads as stuck.
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	var received atomic.Uint64
	var last [senders]uint64 // written by the one reader goroutine
	co.HandleCoordinator(func(from uint32, frame []byte) {
		s, err := DecodeSnapshot(frame)
		if err != nil {
			t.Errorf("undecodable snapshot dispatched: %v", err)
			return
		}
		// At carries the sender, Seq its own count.
		if s.Seq <= last[s.At] {
			t.Errorf("sender %d: seq %d arrived after %d", s.At, s.Seq, last[s.At])
		}
		last[s.At] = s.Seq
		received.Add(1)
	})
	nt, err := DialTCP(co.Addr(), 6, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	waitUntil(t, "node connected", nt.Connected)

	infos := wideInfos(64, 32)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= each; seq++ {
				frame := EncodeSnapshot(&Snapshot{Node: 6, Seq: seq, At: eventsim.Time(g), Infos: infos})
				if err := nt.ToCoordinator(6, frame); err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitUntil(t, "every accepted frame delivered", func() bool {
		return received.Load()+nt.Stats().DropsQueueFull == senders*each
	})
	st := nt.Stats()
	if st.FramesOut != received.Load()+1 || st.CRCResets+co.Stats().CRCResets != 0 || st.Connects != 1 {
		t.Fatalf("received %d, node %+v, coordinator %+v", received.Load(), st, co.Stats())
	}
}

// TestFleetCodecAllocs pins the codec's allocation count per message:
// an encoder makes its one buffer, a decoder its result and one slab
// per slice-valued field, and the reassembler nothing for a frame that
// lies wholly inside the chunk it reads.
func TestFleetCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race instrumentation")
	}
	snap := benchSnapshot()
	snapFrame := EncodeSnapshot(snap)
	deploy := &Deploy{Epoch: 7, At: 9, QueueOf: []int{0, 1, 2, 3}, Rank: []float64{4, 3, 2, 1}}
	deployFrame := EncodeDeploy(deploy)
	var r reassembler
	var out [][]byte
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"EncodeSnapshot", 2, func() { EncodeSnapshot(snap) }},
		{"DecodeSnapshot", 5, func() {
			if _, err := DecodeSnapshot(snapFrame); err != nil {
				t.Fatal(err)
			}
		}},
		{"EncodeDeploy", 2, func() { EncodeDeploy(deploy) }},
		{"DecodeDeploy", 3, func() {
			if _, err := DecodeDeploy(deployFrame); err != nil {
				t.Fatal(err)
			}
		}},
		{"reassemble", 0, func() {
			var err error
			if out, err = r.feed(snapFrame, out[:0]); err != nil || len(out) != 1 {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %v allocations, want <= %v", c.name, got, c.max)
		}
	}
}

// TestChaosProxyRelays: a fault-free proxy is transparent to the
// transport.
func TestChaosProxyRelays(t *testing.T) {
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	px, err := NewChaosProxy("127.0.0.1:0", co.Addr(), 1, faults.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	var got sync.Map
	co.HandleCoordinator(func(from uint32, frame []byte) {
		if s, err := DecodeSnapshot(frame); err == nil {
			got.Store(s.Seq, from)
		}
	})

	nt, err := DialTCP(px.Addr(), 6, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	waitUntil(t, "connect through proxy", nt.Connected)
	if err := nt.ToCoordinator(6, EncodeSnapshot(&Snapshot{Node: 6, Seq: 1, Infos: slotInfos(9, 9)})); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "relayed delivery", func() bool {
		_, ok := got.Load(uint64(1))
		return ok
	})

	if st := px.Stats(); st.Connections == 0 || st.BytesForwarded == 0 {
		t.Fatalf("proxy stats %+v, want a connection and forwarded bytes", st)
	}
}

// TestChaosProxyCorruptionTriggersCRCResets: with byte corruption on
// the wire, the coordinator's verification catches it, the connection
// resets, the node re-handshakes, and traffic keeps flowing — no
// corrupt frame is ever dispatched.
func TestChaosProxyCorruptionTriggersCRCResets(t *testing.T) {
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	px, err := NewChaosProxy("127.0.0.1:0", co.Addr(), 3, faults.Spec{Stream: faults.StreamSpec{CorruptEvery: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	var delivered sync.Map
	co.HandleCoordinator(func(from uint32, frame []byte) {
		s, err := DecodeSnapshot(frame)
		if err != nil {
			t.Errorf("corrupt frame dispatched to the coordinator: %v", err)
			return
		}
		delivered.Store(s.Seq, true)
	})

	nt, err := DialTCP(px.Addr(), 8, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()

	deadline := time.Now().Add(10 * time.Second)
	var seq uint64
	for {
		clk.wake() // a reset node redials
		seq++
		nt.ToCoordinator(8, EncodeSnapshot(&Snapshot{Node: 8, Seq: seq, Infos: slotInfos(seq, seq)}))
		resets := co.Stats().CRCResets + nt.Stats().CRCResets
		var count int
		delivered.Range(func(any, any) bool { count++; return true })
		if resets >= 1 && count >= 5 && nt.Stats().Connects >= 2 {
			break // corrupted, reset, re-handshaken, and still delivering
		}
		if time.Now().After(deadline) {
			t.Fatalf("no CRC reset + recovery within 10s: co=%+v nt=%+v delivered=%d", co.Stats(), nt.Stats(), count)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if px.Stats().BytesCorrupted == 0 {
		t.Fatalf("proxy reports no corruption: %+v", px.Stats())
	}
}
