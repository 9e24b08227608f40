package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"accturbo/internal/eventsim"
)

// FlapSpec is one link-flap schedule: the link is down through each of
// its Count windows, Len long and Period apart from First. Ramp is
// unused.
type FlapSpec = eventsim.Pulses

// StallSpec describes one control-plane stall window: callbacks on the
// wrapped clock due in [At, At+For) are suppressed (periodic polls) or
// delayed to the window's end (one-shot deployments).
type StallSpec struct {
	At  eventsim.Time
	For eventsim.Time
}

// StreamSpec is the byte-stream fault schedule of clause "stream", the
// way a bad middlebox mangles a connection: a corrupt event XORs one
// byte with a nonzero mask, a reset forwards the stream up to its offset
// and then hard-resets the connection (the far side sees an RST
// mid-frame), and a delay stalls the relay for DelayFor. Each *Every
// field is the mean byte gap between two events of its kind (0 = off).
// The fleet's chaos relay applies it to sockets, and its simulated link
// to its connections.
type StreamSpec struct {
	CorruptEvery, ResetEvery, DelayEvery int
	DelayFor                             eventsim.Time
}

// Spec is a declarative fault plan, parseable from the -fault-spec
// flag syntax (see ParseSpec) and applied by an Injector.
type Spec struct {
	// Flaps are link down/up schedules (clause "flap").
	Flaps []FlapSpec
	// DropP, DupP, CorruptP are per-packet fault probabilities at the
	// ingress interposer (clauses "drop", "dup", "corrupt").
	DropP, DupP, CorruptP float64
	// Stalls are control-plane stall windows (clause "stall").
	Stalls []StallSpec
	// Stream is the byte-stream fault schedule (clause "stream").
	Stream StreamSpec
}

// Empty reports whether the spec injects nothing.
func (s Spec) Empty() bool {
	return len(s.Flaps) == 0 && len(s.Stalls) == 0 &&
		s.DropP <= 0 && s.DupP <= 0 && s.CorruptP <= 0 && s.Stream == StreamSpec{}
}

// String renders the spec back in ParseSpec's clause syntax.
func (s Spec) String() string {
	var parts []string
	for _, f := range s.Flaps {
		parts = append(parts, fmt.Sprintf("flap:first=%s,down=%s,period=%s,count=%d",
			f.First.Duration(), f.Len.Duration(), f.Period.Duration(), f.Count))
	}
	if s.DropP > 0 {
		parts = append(parts, fmt.Sprintf("drop:p=%g", s.DropP))
	}
	if s.DupP > 0 {
		parts = append(parts, fmt.Sprintf("dup:p=%g", s.DupP))
	}
	if s.CorruptP > 0 {
		parts = append(parts, fmt.Sprintf("corrupt:p=%g", s.CorruptP))
	}
	for _, w := range s.Stalls {
		parts = append(parts, fmt.Sprintf("stall:at=%s,for=%s", w.At.Duration(), w.For.Duration()))
	}
	if st := s.Stream; st != (StreamSpec{}) {
		parts = append(parts, fmt.Sprintf("stream:corrupt=%d,reset=%d,delay=%d,for=%s",
			st.CorruptEvery, st.ResetEvery, st.DelayEvery, st.DelayFor.Duration()))
	}
	return strings.Join(parts, ";")
}

// ParseSpec parses the -fault-spec flag syntax: semicolon-separated
// clauses of the form kind:key=value,key=value. Durations use Go
// syntax ("250ms", "1.5s"); probabilities are floats in [0, 1].
//
//	flap:first=12s,down=250ms,period=20s,count=4
//	drop:p=0.01
//	dup:p=0.005
//	corrupt:p=0.01
//	stall:at=15s,for=3s        (repeatable)
//	stream:corrupt=4096,reset=32768,delay=8192,for=5ms
//
// A stream number is the mean byte gap between two events of its kind
// (0 = off; see StreamSpec), and delay and for go together. A later
// drop, dup, corrupt or stream clause replaces an earlier one.
// An empty string parses to the empty (inject-nothing) spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, body, _ := strings.Cut(clause, ":")
		if err := spec.add(kind, body); err != nil {
			return Spec{}, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
	}
	// Stable: windows that open together keep the order they were written
	// in, so a rendered spec parses back to itself.
	sort.SliceStable(spec.Stalls, func(i, j int) bool { return spec.Stalls[i].At < spec.Stalls[j].At })
	return spec, nil
}

// add sets one clause's faults on spec.
func (spec *Spec) add(kind, body string) error {
	switch kind {
	case "flap":
		f := FlapSpec{Count: 1}
		err := apply(body, map[string]func(string) error{
			"first":  durInto(&f.First),
			"down":   durInto(&f.Len),
			"period": durInto(&f.Period),
			"count":  intInto(&f.Count, 1),
		})
		switch {
		case err != nil:
			return err
		case f.Len <= 0:
			return errors.New("down must be positive")
		case f.Count > 1 && f.Period <= f.Len:
			return errors.New("period must exceed down time")
		}
		spec.Flaps = append(spec.Flaps, f)
	case "drop":
		return apply(body, map[string]func(string) error{"p": probInto(&spec.DropP)})
	case "dup":
		return apply(body, map[string]func(string) error{"p": probInto(&spec.DupP)})
	case "corrupt":
		return apply(body, map[string]func(string) error{"p": probInto(&spec.CorruptP)})
	case "stall":
		var w StallSpec
		if err := apply(body, map[string]func(string) error{"at": durInto(&w.At), "for": durInto(&w.For)}); err != nil {
			return err
		}
		if w.For <= 0 {
			return errors.New("for must be positive")
		}
		spec.Stalls = append(spec.Stalls, w)
	case "stream":
		var st StreamSpec
		if err := apply(body, map[string]func(string) error{
			"corrupt": intInto(&st.CorruptEvery, 0),
			"reset":   intInto(&st.ResetEvery, 0),
			"delay":   intInto(&st.DelayEvery, 0),
			"for":     durInto(&st.DelayFor),
		}); err != nil {
			return err
		}
		if (st.DelayEvery > 0) != (st.DelayFor > 0) {
			return errors.New("delay needs a positive for, and for a delay")
		}
		spec.Stream = st
	default:
		return fmt.Errorf("unknown clause kind %q", kind)
	}
	return nil
}

// apply parses a clause body of key=value pairs, handing each value to
// its key's setter; an unknown key or a malformed pair is an error.
func apply(body string, setters map[string]func(string) error) error {
	if strings.TrimSpace(body) == "" {
		return nil
	}
	for _, pair := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || k == "" {
			return fmt.Errorf("malformed pair %q (want key=value)", pair)
		}
		set, ok := setters[k]
		if !ok {
			return fmt.Errorf("unknown key %q", k)
		}
		if err := set(v); err != nil {
			return fmt.Errorf("key %q: %w", k, err)
		}
	}
	return nil
}

func durInto(dst *eventsim.Time) func(string) error {
	return func(v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		if d < 0 {
			return fmt.Errorf("duration %s is negative", d)
		}
		*dst = eventsim.Time(d.Nanoseconds())
		return nil
	}
}

func intInto(dst *int, least int) func(string) error {
	return func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		if n < least {
			return fmt.Errorf("%d is below %d", n, least)
		}
		*dst = n
		return nil
	}
}

func probInto(dst *float64) func(string) error {
	return func(v string) error {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		if !(p >= 0 && p <= 1) { // NaN parses, and is neither
			return fmt.Errorf("probability %g outside [0, 1]", p)
		}
		*dst = p
		return nil
	}
}

// Directions of one relayed connection; each draws its own schedule.
const (
	C2S = 0 // client (node) to server (coordinator)
	S2C = 1
)

// Stream-seed labels: one per event class, so each draw sequence is
// independent of chunk interleaving and of the other classes.
const (
	classCorrupt = 1
	classMask    = 2
	classReset   = 3
	classDelay   = 4
)

// gap draws the next inter-event gap: uniform in [1, 2*mean], so the
// mean spacing is ~mean bytes and a gap is never zero. A class with
// mean 0 is off: it draws nothing, and its next offset stays 0.
func gap(rng *Rand, mean int) uint64 {
	if mean <= 0 {
		return 0
	}
	return 1 + rng.Next()%uint64(2*mean)
}

// StreamStats counts injected faults and relayed traffic across the
// connections of one relay or link.
type StreamStats struct {
	Connections    uint64
	BytesForwarded uint64
	BytesCorrupted uint64
	ResetsInjected uint64
	DelaysInjected uint64
}

// Stream is one connection direction's fault schedule. Every fault is
// drawn from seeded splitmix64 streams keyed to cumulative byte offsets
// within the direction, not to read() chunk boundaries, so the schedule
// is a pure function of (seed, spec, connection index, direction) even
// though TCP segmentation is not reproducible.
type Stream struct {
	spec   StreamSpec
	offset uint64

	corruptRNG *Rand
	maskRNG    *Rand
	resetRNG   *Rand
	delayRNG   *Rand

	nextCorrupt uint64
	nextReset   uint64
	nextDelay   uint64
}

// NewStream builds direction dir's schedule of connection conn.
func NewStream(seed uint64, spec StreamSpec, conn, dir uint64) *Stream {
	rng := func(class uint64) *Rand {
		return NewRand(DeriveSeed(DeriveSeed(seed, conn*2+dir), class))
	}
	s := &Stream{
		spec:       spec,
		corruptRNG: rng(classCorrupt),
		maskRNG:    rng(classMask),
		resetRNG:   rng(classReset),
		delayRNG:   rng(classDelay),
	}
	s.nextCorrupt = gap(s.corruptRNG, spec.CorruptEvery)
	s.nextReset = gap(s.resetRNG, spec.ResetEvery)
	s.nextDelay = gap(s.delayRNG, spec.DelayEvery)
	return s
}

// mask draws the XOR mask for one corruption; never zero, so a corrupt
// event always changes the byte (and therefore always breaks the CRC).
func (s *Stream) mask() byte {
	m := byte(s.maskRNG.Next())
	if m == 0 {
		m = 0xff
	}
	return m
}

// Process applies the schedule to one chunk in place and returns how
// many bytes to forward, whether to reset the connection afterwards,
// and how long to stall first. Events trigger when the stream's
// cumulative offset crosses their scheduled offset, and only the bytes
// forwarded take faults — k delays among them stall k × DelayFor, and
// nothing past a reset point is corrupted or counted — so chunk sizes
// never shift or thin the schedule. The counters are updated atomically.
func (s *Stream) Process(chunk []byte, counters *StreamStats) (forward int, reset bool, stall time.Duration) {
	forward = len(chunk)
	if s.spec.ResetEvery > 0 && s.nextReset < s.offset+uint64(forward) {
		// Forward the prefix so the far side is left mid-frame, then RST.
		forward = int(s.nextReset - s.offset)
		reset = true
		s.nextReset += gap(s.resetRNG, s.spec.ResetEvery)
		atomic.AddUint64(&counters.ResetsInjected, 1)
	}
	end := s.offset + uint64(forward)
	for s.spec.DelayEvery > 0 && s.nextDelay < end {
		stall += s.spec.DelayFor.Duration()
		s.nextDelay += gap(s.delayRNG, s.spec.DelayEvery)
		atomic.AddUint64(&counters.DelaysInjected, 1)
	}
	for s.spec.CorruptEvery > 0 && s.nextCorrupt < end {
		chunk[s.nextCorrupt-s.offset] ^= s.mask()
		atomic.AddUint64(&counters.BytesCorrupted, 1)
		s.nextCorrupt += gap(s.corruptRNG, s.spec.CorruptEvery)
	}
	s.offset = end
	atomic.AddUint64(&counters.BytesForwarded, uint64(forward))
	return forward, reset, stall
}

// planHorizon is how many bytes of each connection direction Plan
// renders.
const planHorizon = 1 << 16

// Plan renders the schedule seed and spec apply to the first conns
// connections (in the relay's accept order) over the first planHorizon
// bytes of each direction, without opening a socket: it runs each
// direction's stream over zero bytes one at a time, so it renders what
// Process does. internal/manifest pins one render's bytes, and that
// another seed renders differently.
func (spec StreamSpec) Plan(seed uint64, conns int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos plan seed=%d corrupt=%d reset=%d delay=%d/%s horizon=%d conns=%d\n",
		seed, spec.CorruptEvery, spec.ResetEvery, spec.DelayEvery, spec.DelayFor.Duration(), planHorizon, conns)
	for conn := 0; conn < conns; conn++ {
		for dir, name := range []string{C2S: "c->s", S2C: "s->c"} {
			s, st := NewStream(seed, spec, uint64(conn), uint64(dir)), &StreamStats{}
			for off := 0; off < planHorizon; off++ {
				// A reset forwards nothing; the byte it lands on takes the
				// other faults on the next call.
				one, delays := []byte{0}, st.DelaysInjected
				_, reset, _ := s.Process(one, st)
				if reset {
					s.Process(one, st)
				}
				if one[0] != 0 {
					fmt.Fprintf(&b, "conn=%d dir=%s @%d corrupt mask=0x%02x\n", conn, name, off, one[0])
				}
				if st.DelaysInjected > delays {
					fmt.Fprintf(&b, "conn=%d dir=%s @%d delay %s\n", conn, name, off, spec.DelayFor.Duration())
				}
				if reset {
					fmt.Fprintf(&b, "conn=%d dir=%s @%d reset\n", conn, name, off)
				}
			}
		}
	}
	return b.String()
}
