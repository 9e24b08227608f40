package netsim_test

import (
	"testing"

	"accturbo/internal/acc"
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// A drop is the qdisc's answer: the port accounts whatever Enqueue
// returns, whatever the qdisc, and a PIFO's push-outs through its sink.

// refuser implements queue.Qdisc and nothing else, and refuses every
// other arrival.
type refuser struct {
	fifo *queue.FIFO
	n    int
}

func (r *refuser) Enqueue(now eventsim.Time, p *packet.Packet) queue.DropReason {
	if r.n++; r.n%2 == 0 {
		return queue.DropEarly
	}
	return r.fifo.Enqueue(now, p)
}

func (r *refuser) Dequeue(now eventsim.Time) *packet.Packet { return r.fifo.Dequeue(now) }
func (r *refuser) Len() int                                 { return r.fifo.Len() }
func (r *refuser) Bytes() int                               { return r.fifo.Bytes() }

// conserved fails t unless every packet the port was offered was
// delivered, dropped for some reason or is still queued.
func conserved(t *testing.T, name string, rec *netsim.Recorder, port *netsim.Port) {
	t.Helper()
	arrived := rec.ArrivedBenign() + rec.ArrivedMalicious()
	delivered := rec.DeliveredBenignPkts() + rec.DeliveredMaliciousPkts()
	dropped := rec.DroppedBenign() + rec.DroppedMalicious()
	if queued := uint64(port.Qdisc().Len()); arrived != delivered+dropped+queued {
		t.Errorf("%s: %d arrived, %d delivered + %d dropped + %d queued", name, arrived, delivered, dropped, queued)
	}
}

// TestPortAccountsAPlainQdisc: a qdisc with no way to report drops but
// its answer still has each refusal recorded under the reason it gave,
// released to the pool once and conserved.
func TestPortAccountsAPlainQdisc(t *testing.T) {
	eng := eventsim.New()
	rec := netsim.NewRecorder(eventsim.Second)
	port := netsim.NewPort(eng, &refuser{fifo: queue.NewFIFO(10_000)}, 10e6, rec)
	pool := packet.NewPool()
	port.SetPool(pool)
	// A 500 B packet serializes in 0.4 ms, so with one arrival a
	// millisecond each packet has ended, delivered or refused, before
	// the next is stamped: a pool that got every packet back hands out
	// the same one each time.
	const n = 100
	stamped := map[*packet.Packet]bool{}
	for i := 0; i < n; i++ {
		eng.At(eventsim.Time(i)*eventsim.Millisecond, func(now eventsim.Time) {
			p := pool.Get()
			*p = packet.Packet{Length: 500, FlowID: 1, ID: uint16(i), Label: packet.Label(i % 2)}
			stamped[p] = true
			port.Inject(now, p)
		})
	}
	eng.RunUntil(eventsim.Second)
	if got := rec.DroppedFor(queue.DropEarly); got != n/2 {
		t.Errorf("%d refusals recorded as %v, want %d", got, queue.DropEarly, n/2)
	}
	if got := rec.DeliveredBenignPkts(); got != n/2 {
		t.Errorf("%d delivered, want %d", got, n/2)
	}
	if len(stamped) != 1 {
		t.Errorf("the source stamped %d distinct packets, want 1: refused packets were not released", len(stamped))
	}
	conserved(t, "refuser", rec, port)
}

// answers counts a qdisc's Enqueue answers by reason, and the push-outs
// of a PIFO underneath, forwarding both to the port.
type answers struct {
	queue.Qdisc
	by       [queue.DropLinkDown + 1]uint64
	pushOuts uint64
}

func (a *answers) Enqueue(now eventsim.Time, p *packet.Packet) queue.DropReason {
	r := a.Qdisc.Enqueue(now, p)
	a.by[r]++
	return r
}

func (a *answers) OnPushOut(sink func(eventsim.Time, *packet.Packet)) {
	if pq, ok := a.Qdisc.(*queue.PIFO); ok {
		pq.OnPushOut(func(now eventsim.Time, p *packet.Packet) {
			a.pushOuts++
			sink(now, p)
		})
	}
}

// TestPortAccountsEveryQdiscsAnswers drives each of the package's six
// qdiscs to overflow through a pooled port: the recorder's count for each
// reason is the qdisc's answers with that reason, plus the push-outs for
// DropPushOut.
func TestPortAccountsEveryQdiscsAnswers(t *testing.T) {
	rank := func(_ eventsim.Time, p *packet.Packet) int64 { return int64(p.Label) }
	for _, c := range []struct {
		name string
		q    queue.Qdisc
	}{
		{"fifo", queue.NewFIFO(20_000)},
		{"red", queue.NewRED(20_000, 10e6/8)},
		{"priority", queue.NewPriority(2, 10_000, func(_ eventsim.Time, p *packet.Packet) int { return int(p.Label) })},
		{"pifo", queue.NewPIFO(20_000, rank)},
		{"sppifo", queue.NewSPPIFO(4, 5_000, rank)},
		{"aifo", queue.NewAIFO(20_000, 64, 0.1, rank)},
	} {
		eng := eventsim.New()
		rec := netsim.NewRecorder(eventsim.Second)
		q := &answers{Qdisc: c.q}
		port := netsim.NewPort(eng, q, 10e6, rec)
		end := 2 * eventsim.Second
		pooled(eng, traffic.Merge(
			flow(0, end, 6e6, packet.Benign, 1),
			flow(end/4, end, 30e6, packet.Malicious, 2),
		), port)
		eng.RunUntil(eventsim.MaxTime)
		var refused uint64
		for r := queue.DropTail; r <= queue.DropLinkDown; r++ {
			want := q.by[r]
			if r == queue.DropPushOut {
				want += q.pushOuts
			}
			if got := rec.DroppedFor(r); got != want {
				t.Errorf("%s: %d drops recorded as %v, want %d", c.name, got, r, want)
			}
			refused += q.by[r]
		}
		if refused == 0 || (c.name == "pifo") != (q.pushOuts > 0) {
			t.Errorf("%s: %d arrivals refused and %d pushed out; the run did not overflow as designed", c.name, refused, q.pushOuts)
		}
		conserved(t, c.name, rec, port)
	}
}

// TestACCRefusesAPortWithoutRED: ACC reads RED's drops, so on a FIFO
// port acc.Attach errors and wires nothing, where on a RED port it adds
// its policer stage, its drop hook and its timers.
func TestACCRefusesAPortWithoutRED(t *testing.T) {
	for _, red := range []bool{false, true} {
		eng := eventsim.New()
		var q queue.Qdisc = queue.NewFIFO(10_000)
		if red {
			q = queue.NewRED(10_000, 1e6)
		}
		port := netsim.NewPort(eng, q, 8e6, nil)
		a, err := acc.Attach(eng, port, acc.DefaultConfig())
		if (err == nil) != red || (a != nil) != red {
			t.Errorf("red=%v: Attach = (%v, %v)", red, a, err)
		}
		stages, hooked, events := netsim.IngressStages(port), port.Dropped != nil, eng.Pending()
		if wired := stages > 0 || hooked || events > 0; wired != red {
			t.Errorf("red=%v: %d ingress stages, drop hook %v, %d events scheduled", red, stages, hooked, events)
		}
	}
}
