package fleet

import (
	"bytes"

	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
)

// simLatency is the simulated link's one-way delay.
const simLatency = eventsim.Millisecond

// SimLink is the simulated carrier of the fleet protocol: a byte link
// between one coordinator end and any number of node ends on one
// engine's clock, driving the same ends the socket pumps drive. Every
// write arrives whole simLatency later, as an engine event, so runs are
// deterministic down to the byte. SetUp(false) partitions it: it
// delivers nothing, writes are lost whole and dials refused, until
// SetUp(true). Not goroutine-safe: everything happens on the engine.
type SimLink struct {
	clock core.SimClock
	up    bool
	coord *CoordinatorEnd
	// chaos, when set, corrupts and resets every connection's bytes as
	// ChaosProxy does a socket's under chaosSeed, connection i being the
	// i'th that connected; the link does not stall.
	chaos      *faults.Spec
	chaosSeed  uint64
	chaosStats faults.StreamStats // Connections counts the connections made

	// Lost counts the writes a partition lost.
	Lost uint64
}

// NewSimLink builds an up link, and its coordinator end, on eng.
func NewSimLink(eng *eventsim.Engine) *SimLink {
	l := &SimLink{clock: core.SimClock{Eng: eng}, up: true}
	l.coord = newCoordinatorEnd(l.clock)
	return l
}

// Coordinator returns the coordinator's end.
func (l *SimLink) Coordinator() *CoordinatorEnd { return l.coord }

// Node builds node id's end, which dials at once.
func (l *SimLink) Node(id uint32) *NodeEnd {
	n := newNodeEnd(id, l.clock)
	l.dial(n)
	return n
}

// SetUp raises (true) or partitions (false) the link.
func (l *SimLink) SetUp(up bool) { l.up = up }

// dial connects n, or while the link refuses, dials again after the
// delay n names. A closed end dials no more.
func (l *SimLink) dial(n *NodeEnd) {
	if n.closed {
		return
	}
	redial := func(d eventsim.Time) { l.clock.After(d, func(eventsim.Time) { l.dial(n) }) }
	if !l.up {
		_, d := n.dialed(nil)
		redial(d)
		return
	}
	up := &simSide{l: l, e: &n.end}
	down := &simSide{l: l, e: &l.coord.end, far: up}
	up.far = down
	if l.chaos != nil {
		up.chaos = faults.NewStream(l.chaosSeed, l.chaos.Stream, l.chaosStats.Connections, faults.C2S)
		down.chaos = faults.NewStream(l.chaosSeed, l.chaos.Stream, l.chaosStats.Connections, faults.S2C)
	}
	l.chaosStats.Connections++
	down.c = l.coord.accept(down)
	down.ended = func() { l.coord.ended(down.c, false) }
	up.ended = func() { redial(n.ended(up.c, false)) }
	up.c, _ = n.dialed(up)
}

// simSide is one end's side of a connection on the link; what it writes
// goes to far. The engine runs events due at the same time in the order
// they were scheduled, so no write overtakes another, nor the shutdown.
type simSide struct {
	l     *SimLink
	far   *simSide
	c     *conn
	e     *end
	ended func()         // reports the connection's end to e
	chaos *faults.Stream // faults on what it writes, or nil
	dead  bool
}

// send implements wire: the frame arrives at the far side simLatency
// later, through the chaos stream if there is one. The link being
// partitioned when it would arrive loses it whole, and so does the
// connection having ended.
func (s *simSide) send(frame []byte) bool {
	if s.dead {
		return true
	}
	s.e.out.Add(1)
	chunk, reset := bytes.Clone(frame), false
	if s.chaos != nil {
		var n int
		n, reset, _ = s.chaos.Process(chunk, &s.l.chaosStats)
		chunk = chunk[:n]
	}
	s.l.clock.Eng.After(simLatency, func(eventsim.Time) {
		switch {
		case !s.l.up:
			s.l.Lost++
		case !s.far.dead:
			s.far.e.recv(s.far.c, chunk)
		}
		if reset {
			s.far.shutdown()
			s.shutdown()
		}
	})
	return true
}

// stuck implements wire: the link never holds a write back.
func (s *simSide) stuck(eventsim.Time) bool { return false }

// shutdown implements wire: this side's end hears of it at once, in an
// event of its own (the end may hold its lock), and the far side's once
// everything written before has arrived.
func (s *simSide) shutdown() bool {
	if s.dead {
		return false
	}
	s.dead = true
	s.l.clock.Eng.After(0, func(eventsim.Time) { s.ended() })
	s.l.clock.Eng.After(simLatency, func(eventsim.Time) { s.far.shutdown() })
	return true
}
