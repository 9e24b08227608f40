package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"slices"
	"strconv"
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
	if err := WriteFrame(conn, EncodeHello(id)); err != nil {
		t.Fatalf("raw hello: %v", err)
	}
	return conn
}

// TestReadFrameRejectsOversizedLength: a hostile length prefix is
// refused from the 15 header bytes alone — ReadFrame returns the limit
// error rather than trying to buffer (or block on) gigabytes that will
// never arrive. The reader carries only the header, so any attempt to
// read the claimed payload would surface as an EOF error instead of
// the limit error.
func TestReadFrameRejectsOversizedLength(t *testing.T) {
	head := make([]byte, 0, frameOverhead-4)
	head = append(head, wireMagic...)
	head = binary.LittleEndian.AppendUint16(head, wireVersion)
	head = append(head, MsgSnapshot)
	head = binary.LittleEndian.AppendUint32(head, uint32(maxFramePayload+1))
	_, err := ReadFrame(bytes.NewReader(head))
	if err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized length prefix rejected with %q, want the payload-limit error", err)
	}

	// The limit itself is allowed: the header passes and the reader
	// fails later only because the payload bytes are absent.
	atLimit := make([]byte, 0, frameOverhead-4)
	atLimit = append(atLimit, wireMagic...)
	atLimit = binary.LittleEndian.AppendUint16(atLimit, wireVersion)
	atLimit = append(atLimit, MsgSnapshot)
	atLimit = binary.LittleEndian.AppendUint32(atLimit, uint32(maxFramePayload))
	if _, err := ReadFrame(bytes.NewReader(atLimit)); err == nil || strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("at-limit header: got %v, want an EOF-class error", err)
	}
}

// TestReadFrameRejectsForeignStream: bad magic and foreign versions are
// refused before any payload is read.
func TestReadFrameRejectsForeignStream(t *testing.T) {
	valid := EncodeHello(1)
	badMagic := append([]byte{}, valid...)
	badMagic[0] ^= 0xff
	if _, err := ReadFrame(bytes.NewReader(badMagic)); err == nil {
		t.Fatal("bad magic accepted")
	}
	badVersion := append([]byte{}, valid...)
	badVersion[len(wireMagic)] = 0xee
	if _, err := ReadFrame(bytes.NewReader(badVersion)); err == nil {
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
	var seqA, seqB []time.Duration
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
	a.reset()
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
// fleet is not a dead fleet. The clock moves a beat at a time, and each
// tick's beacons must land on both sides before the next: four silence
// bounds of them each way, with no reconnect and no shed.
func TestTCPHeartbeatsKeepIdleLinkAlive(t *testing.T) {
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	nt, err := DialTCP(co.Addr(), 2, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	waitUntil(t, "handshake", func() bool { return nt.Connected() && co.Stats().Accepted == 1 })

	for b := 1; b <= 4*silentBeats; b++ {
		nt0, co0 := nt.Stats().HeartbeatsIn, co.Stats().HeartbeatsIn
		clk.advance(beat)
		waitUntil(t, fmt.Sprintf("beat %d's heartbeats, both ways", b), func() bool {
			if !nt.Connected() {
				t.Fatal("idle node disconnected despite heartbeats")
			}
			return nt.Stats().HeartbeatsIn > nt0 && co.Stats().HeartbeatsIn > co0
		})
	}
	if st := nt.Stats(); st.Connects != 1 {
		t.Fatalf("idle link was re-established: %+v", st)
	}
	if _, ok := co.LastSeen()[2]; !ok || co.Stats().PeersShed != 0 {
		t.Fatalf("idle peer was shed by the coordinator: %+v, ages %v", co.Stats(), co.LastSeen())
	}
}

// TestTCPSilentPeerShed: a peer that handshakes and then goes silent
// (no heartbeats — a wedged process, not a closed socket) survives every
// tick up to silentBeats beats, is shed on the first tick after, and
// disappears from the liveness view.
func TestTCPSilentPeerShed(t *testing.T) {
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	conn := rawHello(t, co.Addr(), 9)
	defer conn.Close()
	waitUntil(t, "handshake", func() bool { return co.Stats().Accepted == 1 })
	for b := 1; b <= silentBeats; b++ {
		clk.advance(beat)
		if st := co.Stats(); st.PeersShed != 0 || st.Connected != 1 {
			t.Fatalf("shed after %d silent beats: %+v", b, st)
		}
	}
	clk.advance(beat)
	if st := co.Stats(); st.PeersShed != 1 || len(co.LastSeen()) != 0 {
		t.Fatalf("not shed after %d silent beats: %+v, ages %v", silentBeats+1, st, co.LastSeen())
	}
}

// waitStuck waits until p's writer goroutine is blocked in a write: one
// is pending, and no frame has gone out for 50 ms.
func waitStuck(t *testing.T, p *tcpPeer) {
	t.Helper()
	waitUntil(t, "writer blocked", func() bool {
		out := p.c.framesOut.Load()
		time.Sleep(50 * time.Millisecond)
		return p.writeSince.Load() != notWriting && p.c.framesOut.Load() == out
	})
}

// TestTCPLivenessBounds pins the tick's other bounds on the manual
// clock: LastSeen is the exact clock age of the last frame; a peer that
// sends a frame every beat is never shed; and a peer that stops reading
// is shed on the first tick at which a write to it has been pending for
// stuckBeats beats, and on no earlier one.
func TestTCPLivenessBounds(t *testing.T) {
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	conn := rawHello(t, co.Addr(), 9)
	defer conn.Close()
	waitUntil(t, "handshake", func() bool { return co.Stats().Accepted == 1 })

	clk.advance(beat / 2)
	if age := co.LastSeen()[9]; age != (beat / 2).Duration() {
		t.Fatalf("half a beat after the hello, LastSeen reads %v", age)
	}

	// alive sends the coordinator one heartbeat and waits for it to land.
	alive := func() {
		t.Helper()
		in := co.Stats().HeartbeatsIn
		if err := WriteFrame(conn, EncodeHeartbeat(9)); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "heartbeat received", func() bool { return co.Stats().HeartbeatsIn > in })
	}
	for b := 1; b <= 4*silentBeats; b++ {
		alive()
		clk.advance(beat)
		if st := co.Stats(); st.PeersShed != 0 || st.Connected != 1 {
			t.Fatalf("a peer heard from every beat was shed at beat %d: %+v", b, st)
		}
	}

	// On a tick, the peer keeps sending but stops reading: wide frames
	// fill its socket until the writer goroutine blocks, in a write that
	// starts on the tick.
	alive()
	clk.advance(beat / 2)
	p := (*co.peers.Load())[9]
	wide := EncodeSnapshot(&Snapshot{Node: 9, Infos: wideInfos(256, 64)})
	for i := 0; co.Stats().DropsQueueFull == 0; i++ {
		if i == 100_000 {
			t.Fatalf("a peer that never reads took %d wide frames without a queue overflow", i)
		}
		co.ToNode(9, wide)
	}
	waitStuck(t, p)
	since := eventsim.Time(p.writeSince.Load())
	if since != clk.Now() {
		t.Fatalf("the stuck write began at %v, not on the tick at %v", since, clk.Now())
	}
	for b := 1; b <= stuckBeats; b++ {
		alive()
		clk.advance(beat)
		if shed := co.Stats().PeersShed; b < stuckBeats && shed != 0 {
			t.Fatalf("shed with a write pending for %d beats", b)
		} else if b == stuckBeats && shed != 1 {
			t.Fatalf("not shed with a write pending for %d beats: %+v", b, co.Stats())
		}
	}
}

// TestTCPHelloDeadlinesCleared: the hello's socket deadlines — the
// node's write, the coordinator's read — end with the hello. On a clock
// that never moves, so nothing else can end the link, an idle link
// still carries a frame each way once both have passed. The one test
// here that waits on wall time.
func TestTCPHelloDeadlinesCleared(t *testing.T) {
	clk := &manualClock{}
	co, err := ListenTCP("127.0.0.1:0", clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	var up, down atomic.Uint64
	co.HandleCoordinator(func(uint32, []byte) { up.Add(1) })
	nt, err := DialTCP(co.Addr(), 3, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	nt.HandleNode(3, func([]byte) { down.Add(1) })
	waitUntil(t, "handshake", func() bool { return nt.Connected() && co.Stats().Accepted == 1 })

	time.Sleep(max(helloWrite, helloRead) + 500*time.Millisecond)
	if err := nt.ToCoordinator(3, EncodeSnapshot(&Snapshot{Node: 3, Seq: 1, Infos: slotInfos(1, 2)})); err != nil {
		t.Fatal(err)
	}
	if err := co.ToNode(3, EncodeDeploy(&Deploy{Epoch: 1, QueueOf: []int{0, 1}, Rank: []float64{2, 1}})); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "a frame each way", func() bool { return up.Load() == 1 && down.Load() == 1 })
	if ns, cs := nt.Stats(), co.Stats(); ns.Connects != 1 || !ns.Connected || cs.PeersShed != 0 || cs.Connected != 1 {
		t.Fatalf("the link did not outlive the hello deadlines: node %+v, coordinator %+v", ns, cs)
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
	if err := WriteFrame(conn, corrupt); err != nil {
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
	if err := WriteFrame(conn2, EncodeSnapshot(&Snapshot{Node: 9, Seq: 2, Infos: slotInfos(30, 40)})); err != nil {
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
	if _, err := NewCoordinator(co, ccfg); err != nil {
		t.Fatal(err)
	}
	nt, err := DialTCP(addr, 3, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { nt.Close() }()
	node, err := NewNode(3, nt, now, ncfg)
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
	coord2, err := NewCoordinator(co2, ccfg)
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
	if node, err = NewNode(3, nt, now, ncfg); err != nil {
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

// TestTCPBackoffSchedule: the node transport sleeps exactly the seeded
// reconnect schedule. Against a dead address, Dials goes up when the
// clock passes each delay of the backoff stream for the node's id, and
// not a nanosecond earlier; a completed handshake restarts the schedule
// from the minimum; and Close in the middle of a sleep returns at once.
func TestTCPBackoffSchedule(t *testing.T) {
	base := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const id = 5
	clk := &manualClock{}
	want := &backoff{rng: faults.NewRand(faults.DeriveSeed(jitterSeed, id))}
	nt, err := DialTCP(addr, id, clk)
	if err != nil {
		t.Fatal(err)
	}
	// sleep checks that the node sleeps d before its next dial.
	sleep := func(d time.Duration) {
		t.Helper()
		waitUntil(t, "backoff sleep", func() bool { _, ok := clk.sleeping(); return ok })
		dials := nt.Stats().Dials
		if due, _ := clk.sleeping(); due-clk.Now() != eventsim.FromDuration(d) {
			t.Fatalf("after dial %d: sleeping %v, want %v", dials, (due - clk.Now()).Duration(), d)
		}
		clk.advance(eventsim.FromDuration(d) - 1)
		if _, ok := clk.sleeping(); !ok || nt.Stats().Dials != dials {
			t.Fatalf("after dial %d: redialed before its %v sleep was over", dials, d)
		}
		clk.advance(1)
		waitUntil(t, "redial", func() bool { return nt.Stats().Dials == dials+1 })
	}
	for i := 0; i < 10; i++ { // far enough to reach backoffMax
		sleep(want.next())
	}

	co, err := ListenTCP(addr, clk)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	sleep(want.next())
	waitUntil(t, "handshake", func() bool { return nt.Connected() && co.Stats().Accepted == 1 })
	co.Close()
	want.reset()
	sleep(want.next())

	waitUntil(t, "backoff sleep", func() bool { _, ok := clk.sleeping(); return ok })
	start := time.Now()
	nt.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close during a backoff sleep took %v", d)
	}
	if _, ok := clk.sleeping(); ok {
		t.Fatal("Close left the backoff sleep pending")
	}
	if st := nt.Stats(); st.Connects != 1 {
		t.Fatalf("stats %+v, want exactly the one handshake", st)
	}
	checkGoroutines(t, base)
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
	waitStuck(t, (*co.peers.Load())[9])
	clk.advance(stuckBeats * beat)
	if st := co.Stats(); st.PeersShed != 1 {
		t.Fatalf("stalled peer not shed %d beats into a stuck write: %+v", stuckBeats, st)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	var last uint64
	whole := 0
	for {
		raw, err := ReadFrame(br)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break // the shed cut the stream, possibly mid-frame
		}
		if err != nil {
			t.Fatalf("after %d whole frames: %v", whole, err)
		}
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
// it has drained the inline path resumes.
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
	p := nt.cur.Load()

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
	if st := nt.Stats(); st.DropsQueueFull != 0 || st.FramesOut != seq {
		t.Fatalf("sent %d frames on a live link, stats %+v", seq, st)
	}
}

// TestTCPConcurrentSendersRace: eight goroutines send to one peer at
// once, inline and queued writes interleaving under -race. Every frame
// that was not a counted drop arrives whole (a torn one would fail its
// CRC and reset the link), each sender's frames arrive in its order,
// and FramesOut is exactly the number received.
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
	if st.FramesOut != received.Load() || st.CRCResets+co.Stats().CRCResets != 0 || st.Connects != 1 {
		t.Fatalf("received %d, node %+v, coordinator %+v", received.Load(), st, co.Stats())
	}
}

// TestFleetCodecAllocs pins the codec's allocation count per message:
// an encoder makes its one buffer, a decoder its result and one slab
// per slice-valued field, and ReadFrame the frame plus the 15 header
// bytes it reads the length from.
func TestFleetCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race instrumentation")
	}
	snap := benchSnapshot()
	snapFrame := EncodeSnapshot(snap)
	deploy := &Deploy{Epoch: 7, At: 9, QueueOf: []int{0, 1, 2, 3}, Rank: []float64{4, 3, 2, 1}}
	deployFrame := EncodeDeploy(deploy)
	stream := bytes.NewReader(nil)
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
		{"ReadFrame", 2, func() {
			stream.Reset(snapFrame)
			if _, err := ReadFrame(stream); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %v allocations, want <= %v", c.name, got, c.max)
		}
	}
}

// TestChaosPlanDeterministic: the schedule render is a pure function of
// the spec; internal/manifest pins one render's bytes.
func TestChaosPlanDeterministic(t *testing.T) {
	spec := ChaosSpec{Seed: 11, CorruptEvery: 4096, ResetEvery: 16384, DelayEvery: 8192, DelayFor: 5 * time.Millisecond}
	a, b := spec.Plan(3), spec.Plan(3)
	if a != b {
		t.Fatal("identical specs rendered different plans")
	}
	if strings.Count(a, "\n") < 10 {
		t.Fatalf("plan suspiciously empty:\n%s", a)
	}
	for _, want := range []string{"corrupt mask=", "reset", "delay"} {
		if !strings.Contains(a, want) {
			t.Fatalf("plan missing %q events:\n%s", want, a)
		}
	}
	other := spec
	other.Seed = 12
	if other.Plan(3) == a {
		t.Fatal("different seeds rendered identical plans")
	}
}

// TestChaosProcessMatchesPlan: the relay applies Plan's schedule at
// Plan's offsets whatever the read size — the same corrupted offsets and
// masks, every delay, the first reset — and applies and counts nothing
// past the reset, whose bytes are never forwarded.
func TestChaosProcessMatchesPlan(t *testing.T) {
	spec := ChaosSpec{Seed: 7, CorruptEvery: 512, ResetEvery: 16384, DelayEvery: 512, DelayFor: time.Millisecond}
	type event struct {
		off  int
		what string
	}
	var planned []event
	wantReset := -1
	for _, line := range strings.Split(spec.Plan(1), "\n") {
		f := strings.Fields(line) // conn=0 dir=c->s @1234 corrupt mask=0x5a
		if len(f) < 4 || f[1] != "dir=c->s" {
			continue
		}
		off, err := strconv.Atoi(strings.TrimPrefix(f[2], "@"))
		if err != nil {
			t.Fatal(err)
		}
		if f[3] == "reset" && wantReset < 0 {
			wantReset = off
		}
		planned = append(planned, event{off, strings.Join(f[3:], " ")})
	}
	if wantReset < 0 {
		t.Fatal("the plan holds no reset; pick a seed whose first reset is within the horizon")
	}
	var wantCorrupt []string
	wantDelays := 0
	for _, ev := range planned {
		switch {
		case ev.off >= wantReset:
		case strings.HasPrefix(ev.what, "corrupt"):
			wantCorrupt = append(wantCorrupt, fmt.Sprintf("@%d %s", ev.off, ev.what))
		case strings.HasPrefix(ev.what, "delay"):
			wantDelays++
		}
	}
	for _, size := range []int{1, 64, 1500, 32 << 10} {
		s := newChaosStream(spec, 0, chaosDirC2S)
		var st ChaosStats
		var corrupt []string
		var stall time.Duration
		reset := -1
		buf := make([]byte, size)
		for off := 0; off < planHorizon && reset < 0; {
			chunk := buf[:min(size, planHorizon-off)]
			clear(chunk)
			forward, rst, d := s.process(chunk, &st)
			stall += d
			for i, b := range chunk[:forward] {
				if b != 0 {
					corrupt = append(corrupt, fmt.Sprintf("@%d corrupt mask=0x%02x", off+i, b))
				}
			}
			if off += forward; rst {
				reset = off
			}
		}
		if !slices.Equal(corrupt, wantCorrupt) || st.BytesCorrupted != uint64(len(wantCorrupt)) {
			t.Errorf("%d-byte reads: corrupted %v (counted %d), plan %v", size, corrupt, st.BytesCorrupted, wantCorrupt)
		}
		if stall != time.Duration(wantDelays)*spec.DelayFor || st.DelaysInjected != uint64(wantDelays) {
			t.Errorf("%d-byte reads: stalled %v over %d delays, plan has %d delays", size, stall, st.DelaysInjected, wantDelays)
		}
		if reset != wantReset || st.BytesForwarded != uint64(wantReset) {
			t.Errorf("%d-byte reads: reset at %d after %d bytes forwarded, plan resets at %d", size, reset, st.BytesForwarded, wantReset)
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
	px, err := NewChaosProxy("127.0.0.1:0", co.Addr(), ChaosSpec{Seed: 1})
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
	px, err := NewChaosProxy("127.0.0.1:0", co.Addr(), ChaosSpec{Seed: 3, CorruptEvery: 512})
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
