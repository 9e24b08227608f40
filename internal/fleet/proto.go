package fleet

import (
	"bytes"
	"fmt"
	"slices"

	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
	"accturbo/internal/frame"
)

// This file is the fleet protocol, once: a state machine per end, in
// either role, with no goroutine, socket, lock or clock of its own. Its
// end (transport.go) feeds it received chunks, ticks and dial outcomes;
// it writes and tears down through each connection's wire.

// The protocol's timers, on its end's clock. The backoff jitter stream of
// node id is seeded with faults.DeriveSeed(jitterSeed, id).
const (
	beat        = eventsim.Second
	silentBeats = 4
	backoffMin  = 50 * eventsim.Millisecond
	backoffMax  = 5 * eventsim.Second
	jitterSeed  = 1
)

// backoff is the redial schedule: exponential from backoffMin to
// backoffMax with seeded jitter in [d/2, d), so the delays a node slept
// can be replayed. A handshake re-arms it (attempt = 0).
type backoff struct {
	attempt int
	rng     *faults.Rand
}

// next returns the delay before the attempt'th retry and advances the
// schedule.
func (b *backoff) next() eventsim.Time {
	d := backoffMin
	for i := 0; i < b.attempt && d < backoffMax; i++ {
		d *= 2
	}
	b.attempt++
	half := min(d, backoffMax) / 2
	return half + eventsim.Time(b.rng.Next()%uint64(half))
}

// reassembler cuts a received byte stream into frames. It holds only
// bytes that have arrived: bad magic, a foreign version and a payload
// length over maxFramePayload are refused from the 15 header bytes, and
// nothing is sized from the length prefix, so a hostile one cannot make
// it allocate more than the peer actually sent.
type reassembler struct{ buf []byte }

// frameLen is the whole length of the frame b starts with, read from its
// header; 0 while the header is incomplete.
func frameLen(b []byte) (int, error) {
	if len(b) < headerLen {
		return 0, nil
	}
	if string(b[:len(wireMagic)]) != wireMagic {
		return 0, fmt.Errorf("fleet: bad magic %q on stream", b[:len(wireMagic)])
	}
	d := frame.NewDec(b[len(wireMagic):headerLen])
	if v := d.U16(); v != wireVersion {
		return 0, fmt.Errorf("fleet: stream speaks frame version %d, this build speaks %d", v, wireVersion)
	}
	d.U8() // the type is the decoders' business
	plen := int(d.U32())
	if plen > maxFramePayload {
		return 0, fmt.Errorf("fleet: frame payload %d exceeds the %d limit", plen, maxFramePayload)
	}
	return headerLen + plen + 4, nil
}

// feed cuts chunk into frames and returns out extended by every frame it
// completes, in order. A frame that lies wholly inside chunk aliases it,
// so it is good only until the carrier reads into chunk again; only a
// frame begun in an earlier chunk is copied, out of the held bytes. An
// error refuses the next frame's header; the stream is over then.
func (r *reassembler) feed(chunk []byte, out [][]byte) ([][]byte, error) {
	for len(r.buf) > 0 {
		switch n, err := frameLen(r.buf); {
		case err != nil:
			return out, err
		case n > 0 && len(r.buf) == n:
			out, r.buf = append(out, bytes.Clone(r.buf)), r.buf[:0]
		case len(chunk) == 0:
			return out, nil
		default: // the held frame's header, or the rest of it
			take := min(max(n, headerLen)-len(r.buf), len(chunk))
			r.buf, chunk = append(r.buf, chunk[:take]...), chunk[take:]
		}
	}
	n, err := frameLen(chunk)
	for ; err == nil && n > 0 && len(chunk) >= n; n, err = frameLen(chunk) {
		out, chunk = append(out, chunk[:n:n]), chunk[n:]
	}
	r.buf = append(r.buf, chunk...)
	return out, err
}

// wire is a carrier's side of one connection. No method blocks.
type wire interface {
	// send puts a frame on its way; false is a drop (a full queue).
	send(frame []byte) bool
	// stuck reports a write pending since stuckBeats beats before now.
	stuck(now eventsim.Time) bool
	// shutdown tears the connection down, true for the call that did;
	// the carrier then reports the connection's end to the end once.
	shutdown() bool
}

// conn is one connection's protocol state. Its stream (rx, frames) is
// touched only by the connection's reader; the rest only by its machine.
type conn struct {
	w        wire
	node     uint32        // who it speaks for; 0 until a coordinator's hears the hello
	lastSeen eventsim.Time // when it last delivered a frame, or was made
	gone     bool          // dropped: whatever else it brings is ignored
	rx       reassembler
	frames   [][]byte // read's scratch
}

// read cuts the frames chunk completes out of c's stream and verifies
// each, once: the handlers decode them without a second CRC. ok turns
// false at a refused header or a frame that fails, and nothing from there
// on is returned. A frame may alias chunk (see feed). Only c's reader
// runs it.
func (c *conn) read(chunk []byte) (frames [][]byte, ok bool) {
	frames, err := c.rx.feed(chunk, c.frames[:0])
	c.frames = frames
	for i, f := range frames {
		if _, err := VerifyFrame(f); err != nil {
			return frames[:i], false
		}
	}
	return frames, err == nil
}

// silent reports a connection to shed at now: nothing from it for more
// than silentBeats beats, or a write to it stuck.
func (c *conn) silent(now eventsim.Time) bool {
	return now-c.lastSeen > silentBeats*beat || c.w.stuck(now)
}

// linkCounts are a machine's counts; CoordinatorLinkStats and
// NodeLinkStats name them per role.
type linkCounts struct {
	dials, joins, handshakeFails, framesIn, heartbeatsIn, noPeer, crcResets, shed uint64
}

// proto is one end of the protocol. The coordinator's (id 0) accepts
// connections, each of which must open with a hello naming the node it
// speaks for, and routes by that node. Node id's dials one connection,
// which speaks for id from the start and opens with its hello, and dials
// again on the backoff when it ends.
type proto struct {
	id    uint32
	want  uint8            // the message type its handler takes
	conns []*conn          // live, in the order they were made
	peers map[uint32]*conn // the joined ones, by the node they speak for
	bo    backoff          // a node's
	st    linkCounts
}

func newProto(id uint32) proto {
	m := proto{id: id, want: MsgSnapshot, peers: make(map[uint32]*conn)}
	if id != 0 {
		m.want, m.bo.rng = MsgDeploy, faults.NewRand(faults.DeriveSeed(jitterSeed, uint64(id)))
	}
	return m
}

// accept starts the state of a connection made at now.
func (m *proto) accept(w wire, now eventsim.Time) *conn {
	c := &conn{w: w, lastSeen: now}
	m.conns = append(m.conns, c)
	return c
}

// dialed is a node's dial outcome at now: w is the new connection, which
// the hello goes out on first, or nil when the dial failed — then the
// carrier dials again after redial.
func (m *proto) dialed(w wire, now eventsim.Time) (c *conn, redial eventsim.Time) {
	m.st.dials++
	if w == nil {
		return nil, m.bo.next()
	}
	m.st.joins++
	m.bo.attempt = 0
	c = m.accept(w, now)
	c.node, m.peers[m.id] = m.id, c
	w.send(EncodeHello(m.id))
	return c, 0
}

// recv judges the frames c.read returned for c at now (ok: the stream
// is still trusted). A connection's first frame must be a hello, unless
// it speaks for a node already: the hello joins it and drops the node's
// previous connection, which may not know yet that it is dead. After it,
// frames of type m.want are delivered and heartbeats only mark c seen.
// Anything else resets the connection, counted in crcResets, or in
// handshakeFails before the hello.
func (m *proto) recv(c *conn, now eventsim.Time, frames [][]byte, ok bool) (joined bool, deliver [][]byte) {
	if c.gone {
		return false, nil
	}
	deliver = frames[:0]
walk:
	for _, f := range frames {
		switch {
		case c.node == 0:
			if c.node, _ = DecodeHello(f); c.node == 0 {
				ok = false
				break walk
			}
			m.drop(m.peers[c.node], false)
			m.peers[c.node], joined = c, true
			m.st.joins++
		case msgType(f) == m.want:
			deliver = append(deliver, f)
			m.st.framesIn++
		case msgType(f) == MsgHeartbeat:
			m.st.heartbeatsIn++
		default:
			ok = false
			break walk
		}
		c.lastSeen = now
	}
	if !ok {
		if c.node == 0 {
			m.st.handshakeFails++
		} else {
			m.st.crcResets++
		}
		m.drop(c, false)
	}
	return joined, deliver
}

// drop forgets c, if it is live, and shuts it down, counted in shed when
// its silence or a failed write decided it.
func (m *proto) drop(c *conn, shed bool) {
	if c == nil || c.gone {
		return
	}
	if shed {
		m.st.shed++
	}
	c.gone = true
	c.w.shutdown()
	m.conns = slices.DeleteFunc(m.conns, func(x *conn) bool { return x == c })
	if m.peers[c.node] == c {
		delete(m.peers, c.node)
	}
}

// ended is the carrier's report that c is gone (shed: its write failed
// first); a node dials again after redial.
func (m *proto) ended(c *conn, shed bool) (redial eventsim.Time) {
	m.drop(c, shed)
	if m.id == 0 {
		return 0
	}
	return m.bo.next()
}

// route is the connection to node to, or nil: a drop, counted in noPeer.
func (m *proto) route(to uint32) *conn {
	c := m.peers[to]
	if c == nil {
		m.st.noPeer++
	}
	return c
}

// tick is one beat at now: a silent connection is shed — one that never
// said hello counted in handshakeFails — and every other joined one
// heartbeated.
func (m *proto) tick(now eventsim.Time) {
	for _, c := range slices.Clone(m.conns) {
		switch {
		case c.silent(now):
			if c.node == 0 {
				m.st.handshakeFails++
			}
			m.drop(c, c.node != 0)
		case c.node != 0:
			c.w.send(EncodeHeartbeat(m.id))
		}
	}
}
