package fleet

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
)

// TestSimLinkChaos puts the chaos proxy's fault streams on the simulated
// link: three nodes rank through a coordinator while every connection's
// bytes take corruption and mid-frame resets. CRC resets and
// re-handshakes happen, one for each injected fault, and no corrupt frame
// reaches a handler (the decoders would count it); and once
// the faults stop, every node is back on the fleet ranking. The run is
// deterministic: a second one counts the same.
func TestSimLinkChaos(t *testing.T) {
	type outcome struct {
		faults       faults.StreamStats
		coord        CoordinatorLinkStats
		crc, redials uint64
	}
	run := func() outcome {
		eng := eventsim.New()
		link := NewSimLink(eng)
		link.chaos, link.chaosSeed = &faults.Spec{Stream: faults.StreamSpec{CorruptEvery: 4096, ResetEvery: 16384}}, 3
		coord, err := NewCoordinator(link.Coordinator(), CoordinatorConfig{
			Slots: 2, NumQueues: 2, Ranking: core.ByThroughput, Distance: cluster.Manhattan,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt := simRT()
		var nodes []*Node
		var ends []*NodeEnd
		for id := uint32(1); id <= 3; id++ {
			end := link.Node(id)
			n, err := NewNode(id, end, eng.Now, NodeConfig{Slots: 2, NumQueues: 2})
			if err != nil {
				t.Fatal(err)
			}
			nodes, ends = append(nodes, n), append(ends, end)
		}
		eng.Every(rt.PollInterval, func(now eventsim.Time) {
			for _, n := range nodes {
				n.Rank(now, slotInfos(1000, 600), []int{0, 0}, rt)
			}
		})
		// New connections are clean from here; the faulty ones meet their
		// next fault and are redialed clean too.
		eng.At(20*eventsim.Second, func(eventsim.Time) { link.chaos = nil })
		eng.RunUntil(40 * eventsim.Second)

		o := outcome{faults: link.chaosStats, coord: link.Coordinator().Stats()}
		o.crc = o.coord.CRCResets
		for i, end := range ends {
			st := end.Stats()
			o.crc += st.CRCResets
			o.redials += st.Connects - 1
			if src := nodes[i].Source(); src != "fleet" || nodes[i].Stats().BadDeploys != 0 {
				t.Errorf("node %d ends on %q with %+v", i+1, src, nodes[i].Stats())
			}
		}
		if cs := coord.Stats(); cs.Rejected != 0 {
			t.Errorf("a corrupt snapshot reached the coordinator: %+v", cs)
		}
		return o
	}
	o := run()
	if o.crc == 0 || o.redials == 0 || o.faults.ResetsInjected == 0 {
		t.Fatalf("no CRC reset, redial or injected reset: %+v", o)
	}
	// At these rates every corrupted byte lands in a frame whose CRC
	// catches it, and every connection that ends took a corruption or a
	// reset.
	if o.crc != o.faults.BytesCorrupted || o.redials != o.crc+o.faults.ResetsInjected {
		t.Fatalf("the resets do not match the injected faults: %+v", o)
	}
	if o.coord.Accepted != 3+o.redials || o.coord.Connected != 3 {
		t.Fatalf("every redial is a handshake: %+v", o)
	}
	if again := run(); again != o {
		t.Fatalf("two runs differ:\n%+v\n%+v", o, again)
	}
}

// TestCoordinatorRefusesFramesBeforeHello: a connection that opens with
// anything but a hello — here a sound snapshot — is refused and counted
// as a failed handshake, and the frame never reaches the handler; one
// that opens with a hello joins, and its snapshot is delivered after the
// join; and a later hello for the same node replaces that connection,
// which is shut down at once — the join runs, and the snapshot after it
// is delivered, even when a corrupt frame in the same chunk then resets
// the new connection.
func TestCoordinatorRefusesFramesBeforeHello(t *testing.T) {
	e := newCoordinatorEnd(core.SimClock{Eng: eventsim.New()})
	var got []string
	e.HandleJoin(func(id uint32) { got = append(got, fmt.Sprintf("join %d", id)) })
	e.HandleCoordinator(func(from uint32, f []byte) {
		got = append(got, fmt.Sprintf("type %d from %d", msgType(f), from))
	})
	step := func(name string, chunk []byte, want ...string) *fuzzConn {
		t.Helper()
		fc := &fuzzConn{}
		got = nil
		e.recv(e.accept(fuzzWire{fc, 1}), chunk)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: handlers saw %q, want %q", name, got, want)
		}
		return fc
	}
	snap := EncodeSnapshot(&Snapshot{Node: 4, Seq: 1, Infos: slotInfos(1, 2)})
	corrupt := bytes.Clone(snap)
	corrupt[headerLen] ^= 1
	if rude := step("snapshot before hello", snap); !rude.dead || e.Stats().HandshakeFails != 1 {
		t.Fatalf("snapshot before hello: shut down %v, %+v", rude.dead, e.Stats())
	}
	polite := step("hello then snapshot", slices.Concat(EncodeHello(4), snap), "join 4", "type 1 from 4")
	if polite.dead || e.Stats().Connected != 1 {
		t.Fatalf("hello then snapshot: shut down %v, %+v", polite.dead, e.Stats())
	}
	again := step("hello, snapshot, corrupt frame", slices.Concat(EncodeHello(4), snap, corrupt), "join 4", "type 1 from 4")
	if st := e.Stats(); !polite.dead || !again.dead || st.Accepted != 2 || st.CRCResets != 1 || st.Connected != 0 {
		t.Fatalf("second hello: old shut down %v, new shut down %v, %+v", polite.dead, again.dead, st)
	}
}

// fuzzConn is one connection of FuzzFleetProtocol's pipe: per direction
// (0 node→coordinator, 1 back) the bytes in flight, what has arrived, the
// faults, and the snapshots or deploys written and how many of them were
// delivered.
type fuzzConn struct {
	cc, nc  *conn
	dead    bool // a machine shut it down
	flight  [2][]byte
	arrived [2]int
	chaos   [2]*faults.Stream
	written [2][][]byte
	got     [2]int
}

// fuzzWire is one side's wire of a fuzzConn.
type fuzzWire struct {
	fc  *fuzzConn
	dir int
}

func (w fuzzWire) send(f []byte) bool {
	w.fc.flight[w.dir] = append(w.fc.flight[w.dir], f...)
	if t, _ := VerifyFrame(f); t == MsgSnapshot || t == MsgDeploy {
		w.fc.written[w.dir] = append(w.fc.written[w.dir], f)
	}
	return true
}

func (fuzzWire) stuck(eventsim.Time) bool { return false }

func (w fuzzWire) shutdown() bool {
	first := !w.fc.dead
	w.fc.dead = true
	return first
}

// FuzzFleetProtocol joins a coordinator machine and a node machine by an
// in-memory pipe and lets the input choose the chunk boundaries, the
// clock's steps, what each side sends, and the chaos streams' corruption
// and resets. Per direction, every snapshot or deploy sent is delivered,
// dropped for want of a connection, or lost to a connection's end — and
// the machines' counters say the same; a connection delivers a prefix of
// what was written to it, byte for byte, so no corrupt frame reaches a
// handler; and a reassembler never holds more than its connection
// delivered.
func FuzzFleetProtocol(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), []byte{0, 3, 1, 40, 4, 2, 40, 5, 3, 1, 200, 2, 200})
	f.Add(uint64(7), uint16(300), uint16(900), []byte{0, 3, 3, 1, 9, 1, 255, 4, 4, 2, 7, 2, 255, 5, 9, 0, 3, 1, 255})
	f.Add(uint64(2), uint16(0), uint16(0), []byte{0, 1, 255, 5, 250, 5, 250, 3, 1, 255, 0, 1, 255})
	f.Fuzz(func(t *testing.T, seed uint64, corrupt, reset uint16, ops []byte) {
		spec := faults.StreamSpec{CorruptEvery: int(corrupt), ResetEvery: int(reset)}
		m, n := newProto(0), newProto(1)
		var now eventsim.Time
		var fc *fuzzConn
		var conns uint64
		var sent, dropped, lost, delivered [2]int

		// end is the carrier's report, to both machines, that the
		// connection is gone.
		end := func() {
			for dir := range fc.written {
				lost[dir] += len(fc.written[dir]) - fc.got[dir]
			}
			m.drop(fc.cc, false)
			n.ended(fc.nc, false)
			fc = nil
		}
		// deliver moves up to k bytes in flight in direction dir through
		// its chaos stream to the far machine.
		deliver := func(dir int, k int) {
			chunk := fc.flight[dir][:min(k, len(fc.flight[dir]))]
			fc.flight[dir] = fc.flight[dir][len(chunk):]
			fwd, rst, _ := fc.chaos[dir].Process(chunk, &faults.StreamStats{})
			chunk = chunk[:fwd]
			fc.arrived[dir] += len(chunk)
			c, mach := fc.cc, &m
			if dir == 1 {
				c, mach = fc.nc, &n
			}
			resets := func() uint64 { return m.st.crcResets + m.st.handshakeFails + n.st.crcResets }
			before := resets()
			frames, ok := c.read(chunk)
			_, frames = mach.recv(c, now, frames, ok)
			if fc.dead != (resets() > before) {
				t.Fatalf("resets counted %d -> %d, connection shut down: %v", before, resets(), fc.dead)
			}
			if len(c.rx.buf) > fc.arrived[dir] {
				t.Fatalf("reassembler holds %d bytes of the %d that arrived", len(c.rx.buf), fc.arrived[dir])
			}
			for _, got := range frames {
				if i := fc.got[dir]; i >= len(fc.written[dir]) || !bytes.Equal(got, fc.written[dir][i]) {
					t.Fatalf("direction %d: delivery %d is not what was written", dir, i)
				}
				fc.got[dir]++
				delivered[dir]++
			}
			if rst {
				fc.dead = true
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, int(ops[i+1])
			switch {
			case op == 0 && fc == nil:
				fc = &fuzzConn{chaos: [2]*faults.Stream{faults.NewStream(seed, spec, conns, faults.C2S), faults.NewStream(seed, spec, conns, faults.S2C)}}
				conns++
				fc.cc = m.accept(fuzzWire{fc, 1}, now)
				fc.nc, _ = n.dialed(fuzzWire{fc, 0}, now)
			case op == 1 && fc != nil:
				deliver(0, arg+1)
			case op == 2 && fc != nil:
				deliver(1, arg+1)
			case op == 3:
				sent[0]++
				if c := n.route(1); c == nil {
					dropped[0]++
				} else {
					c.w.send(EncodeSnapshot(&Snapshot{Node: 1, Seq: uint64(sent[0]), Infos: slotInfos(uint64(arg), 1)}))
				}
			case op == 4:
				sent[1]++
				if c := m.route(1); c == nil {
					dropped[1]++
				} else {
					c.w.send(EncodeDeploy(&Deploy{Epoch: uint64(sent[1]), QueueOf: []int{arg % 2}, Rank: []float64{float64(arg)}}))
				}
			case op == 5:
				now += eventsim.Time(arg) * beat / 64
				m.tick(now)
				n.tick(now)
			}
			if fc != nil && fc.dead {
				end()
			}
		}
		if fc != nil {
			end()
		}
		for dir := range sent {
			if sent[dir] != delivered[dir]+dropped[dir]+lost[dir] {
				t.Fatalf("direction %d: %d sent, %d delivered, %d dropped, %d lost", dir, sent[dir], delivered[dir], dropped[dir], lost[dir])
			}
		}
		if uint64(delivered[0]) != m.st.framesIn || uint64(delivered[1]) != n.st.framesIn ||
			uint64(dropped[0]) != n.st.noPeer || uint64(dropped[1]) != m.st.noPeer {
			t.Fatalf("counters: coordinator %+v, node %+v; delivered %v, dropped %v", m.st, n.st, delivered, dropped)
		}
	})
}
