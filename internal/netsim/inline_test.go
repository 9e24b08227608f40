package netsim_test

import (
	"testing"

	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
	"accturbo/internal/jaqen"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// The differential test of the inline path. Arrivals (replayStep) and
// transmit completions (portTxDone) run inline whenever they are the
// next event the engine would run. The oracle is the same scenario
// driven by Engine.Step, under which Advance always refuses: there every
// arrival and every transmit-done is its own queued event, the schedule
// the simulator had before Advance existed. Both runs must log the same
// port events with the same clock, Processed and Pending.

// portEvent is one callback a port's accounting or a scenario tick saw.
type portEvent struct {
	port      int
	kind      byte // 'a' arrival, 'd' delivered, 'x' dropped, 't' tick
	at        eventsim.Time
	flow      uint32
	seq       uint64
	reason    queue.DropReason
	processed uint64
	pending   int
}

type eventLog struct {
	eng    *eventsim.Engine
	events []portEvent
}

func (l *eventLog) note(port int, kind byte, p *packet.Packet, reason queue.DropReason) {
	e := portEvent{port: port, kind: kind, at: l.eng.Now(), reason: reason, processed: l.eng.Processed, pending: l.eng.Pending()}
	if p != nil {
		e.flow, e.seq = p.FlowID, p.Seq
	}
	l.events = append(l.events, e)
}

// tick logs a scenario's own timer firing.
func (l *eventLog) tick() { l.note(-1, 't', nil, queue.DropNone) }

// logged forwards to a port's accounting and logs each event after it,
// so the packet carries the Seq the recorder stamped.
type logged struct {
	netsim.Accounting
	log  *eventLog
	port int
}

func (a logged) Arrival(now eventsim.Time, p *packet.Packet) {
	a.Accounting.Arrival(now, p)
	a.log.note(a.port, 'a', p, queue.DropNone)
}

func (a logged) Delivered(now eventsim.Time, p *packet.Packet) {
	a.Accounting.Delivered(now, p)
	a.log.note(a.port, 'd', p, queue.DropNone)
}

func (a logged) Dropped(now eventsim.Time, p *packet.Packet, reason queue.DropReason) {
	a.Accounting.Dropped(now, p, reason)
	a.log.note(a.port, 'x', p, reason)
}

// flow is a 500-byte CBR flow of one label.
func flow(start, end eventsim.Time, rate float64, label packet.Label, id uint32) traffic.Source {
	spec := traffic.FlowSpec{
		SrcIP: packet.V4Addr{1, 1, 1, byte(id)}, DstIP: packet.V4Addr{2, 2, byte(id), 2},
		Protocol: packet.ProtoUDP, SrcPort: 1, DstPort: 2, TTL: 64, Size: 500,
		Label: label, FlowID: id,
	}
	return traffic.NewCBR(start, end, rate, spec.Factory(int64(id)))
}

// pooled closes the packet lifecycle at a sink port, as the experiments
// do, and replays src into it.
func pooled(eng *eventsim.Engine, src traffic.Source, port *netsim.Port) {
	pool := packet.NewPool()
	traffic.AttachPool(src, pool)
	port.SetPool(pool)
	netsim.Replay(eng, src, port)
}

type shape struct {
	name string
	end  eventsim.Time
	// build wires the scenario on eng and returns its recorded ports.
	build func(eng *eventsim.Engine, log *eventLog) []*netsim.Port
}

const link = 4e6 // a 500-byte packet serializes in exactly 1 ms

var shapes = []shape{
	{"pulse wave through core.Attach", 17 * eventsim.Second, func(eng *eventsim.Engine, _ *eventLog) []*netsim.Port {
		port, _, err := core.Attach(eng, link, netsim.NewRecorder(eventsim.Second), core.DefaultConfig())
		if err != nil {
			panic(err)
		}
		pooled(eng, traffic.PulseWave(link, 3*link, 500*eventsim.Millisecond, true), port)
		return []*netsim.Port{port}
	}},
	{"Jaqen's FIFO", 17 * eventsim.Second, func(eng *eventsim.Engine, _ *eventLog) []*netsim.Port {
		port := netsim.NewPort(eng, queue.NewFIFO(link/80), link, netsim.NewRecorder(eventsim.Second))
		cfg := jaqen.DefaultConfig()
		cfg.Window = eventsim.Second
		cfg.Threshold = 500
		if _, err := jaqen.Attach(eng, port, cfg); err != nil {
			panic(err)
		}
		pooled(eng, traffic.PulseWave(link, 3*link, 3*eventsim.Second, false), port)
		return []*netsim.Port{port}
	}},
	{"two replays into one port", 3 * eventsim.Second, func(eng *eventsim.Engine, _ *eventLog) []*netsim.Port {
		port := netsim.NewPort(eng, queue.NewFIFO(20_000), link, netsim.NewRecorder(eventsim.Second))
		pool := packet.NewPool()
		port.SetPool(pool)
		for _, src := range []traffic.Source{
			traffic.NewBackground(traffic.BackgroundConfig{Rate: 3e6, End: 3 * eventsim.Second, Seed: 1}),
			flow(eventsim.Second, 2*eventsim.Second, 2e6, packet.Malicious, 1<<20),
		} {
			traffic.AttachPool(src, pool)
			netsim.Replay(eng, src, port)
		}
		return []*netsim.Port{port}
	}},
	{"Chain", 4 * eventsim.Second, func(eng *eventsim.Engine, _ *eventLog) []*netsim.Port {
		rec := func() *netsim.Recorder { return netsim.NewRecorder(eventsim.Second) }
		split := queue.NewPriority(2, 20_000, func(_ eventsim.Time, p *packet.Packet) int { return int(p.ID) % 2 })
		ports := []*netsim.Port{
			netsim.NewPort(eng, split, link, rec()),
			netsim.NewPort(eng, queue.NewFIFO(25_000), 5e6, rec()),
			netsim.NewPort(eng, queue.NewFIFO(25_000), 5e6, rec()),
		}
		netsim.Chain(eng, ports[1], ports[0], eventsim.Millisecond)
		netsim.Chain(eng, ports[2], ports[0], 0)
		pool := packet.NewPool()
		ports[0].SetPool(pool)
		for i, src := range []traffic.Source{
			traffic.Merge(
				traffic.NewBackground(traffic.BackgroundConfig{Rate: 2e6, End: 3 * eventsim.Second, Seed: 2}),
				flow(eventsim.Second, 3*eventsim.Second, 6e6, packet.Malicious, 1<<20)),
			traffic.NewBackground(traffic.BackgroundConfig{Rate: 2e6, End: 3 * eventsim.Second, Seed: 3}),
		} {
			traffic.AttachPool(src, pool)
			netsim.Replay(eng, src, ports[i+1])
		}
		return ports
	}},
	{"AIMD sender", 3 * eventsim.Second, func(eng *eventsim.Engine, _ *eventLog) []*netsim.Port {
		port := netsim.NewPort(eng, queue.NewFIFO(20_000), link, netsim.NewRecorder(eventsim.Second))
		netsim.NewAIMD(eng, port, netsim.AIMDConfig{
			SrcIP: packet.V4Addr{3, 3, 3, 3}, DstIP: packet.V4Addr{4, 4, 4, 4},
			SrcPort: 5, DstPort: 6, Size: 500, RTT: 5 * eventsim.Millisecond,
			End: 3 * eventsim.Second, FlowID: 7, Seed: 1,
		})
		netsim.Replay(eng, flow(eventsim.Second, 2*eventsim.Second, 3e6, packet.Malicious, 9), port)
		return []*netsim.Port{port}
	}},
	{"link flap", 3 * eventsim.Second, func(eng *eventsim.Engine, _ *eventLog) []*netsim.Port {
		port := netsim.NewPort(eng, queue.NewFIFO(20_000), link, netsim.NewRecorder(eventsim.Second))
		faults.New(1, faults.Spec{Flaps: []faults.FlapSpec{{
			First: 500 * eventsim.Millisecond, Len: 200 * eventsim.Millisecond, Period: eventsim.Second, Count: 2,
		}}}).FlapLinks(eng, port)
		pooled(eng, traffic.Merge(
			flow(0, 3*eventsim.Second, 3e6, packet.Benign, 1),
			flow(0, 3*eventsim.Second, 2e6, packet.Malicious, 2)), port)
		return []*netsim.Port{port}
	}},
	{"tick on an arrival time", 2 * eventsim.Second, func(eng *eventsim.Engine, log *eventLog) []*netsim.Port {
		// Flow 1 arrives every 1 ms and each packet serializes in 1 ms,
		// so transmit-dones, arrivals and the 10 ms ticks that re-rank
		// the flows all land on the same instants.
		favoured := 1
		pq := queue.NewPriority(2, 20_000, func(_ eventsim.Time, p *packet.Packet) int {
			if int(p.FlowID) == favoured {
				return 0
			}
			return 1
		})
		port := netsim.NewPort(eng, pq, link, netsim.NewRecorder(eventsim.Second))
		eng.Every(10*eventsim.Millisecond, func(eventsim.Time) {
			log.tick()
			favoured = 3 - favoured
		})
		pooled(eng, traffic.Merge(
			flow(0, 2*eventsim.Second, link, packet.Benign, 1),
			flow(0, 2*eventsim.Second, link/4, packet.Malicious, 2)), port)
		return []*netsim.Port{port}
	}},
}

// runShape runs one scenario to its end, inline or stepped, and returns
// the log closed by the engine's final clock, Processed and Pending.
func runShape(t *testing.T, s shape, stepped bool) []portEvent {
	eng := eventsim.New()
	log := &eventLog{eng: eng}
	for i, port := range s.build(eng, log) {
		netsim.WrapAccounting(port, func(a netsim.Accounting) netsim.Accounting { return logged{a, log, i} })
	}
	// Both runs stop at the same event, scheduled after everything the
	// scenario wired, so it counts in Processed alike. Ticks and CBR
	// arrivals land on round times; the end is a few ns past one.
	end := s.end + 1237
	stopped := false
	eng.At(end, func(eventsim.Time) { stopped = true })
	if !stepped {
		// In slices, as the benchmark runs it: no callback of a slice
		// may fire past its deadline.
		for until := eventsim.Time(0); until < end; {
			until = min(until+25*eventsim.Millisecond, end)
			from := len(log.events)
			eng.RunUntil(until)
			for _, e := range log.events[from:] {
				if e.at > until {
					t.Fatalf("%s: %+v ran in the slice ending at %v", s.name, e, until)
				}
			}
		}
	} else {
		for !stopped && eng.Step() {
		}
		// RunUntil would also run events due at the end queued after the
		// stop event; there must be none, or the oracle stopped early.
		n := eng.Processed
		eng.RunUntil(end)
		if eng.Processed != n {
			t.Fatalf("%s: %d events share the end time with the stop event; move the end", s.name, eng.Processed-n)
		}
	}
	log.note(-1, 'e', nil, queue.DropNone)
	return log.events
}

func TestInlineMatchesSteppedSchedule(t *testing.T) {
	for _, s := range shapes {
		inline, stepped := runShape(t, s, false), runShape(t, s, true)
		kinds := map[byte]int{}
		for _, e := range stepped {
			kinds[e.kind]++
		}
		if kinds['a'] == 0 || kinds['d'] == 0 || kinds['x'] == 0 {
			t.Errorf("%s: %d arrivals, %d deliveries, %d drops; the shape must exercise all three", s.name, kinds['a'], kinds['d'], kinds['x'])
		}
		if len(inline) != len(stepped) {
			t.Errorf("%s: %d events inline, %d stepped", s.name, len(inline), len(stepped))
		}
		for i := range min(len(inline), len(stepped)) {
			if inline[i] != stepped[i] {
				t.Errorf("%s: event %d of %d: inline %+v, stepped %+v", s.name, i, len(stepped), inline[i], stepped[i])
				break
			}
		}
	}
}
