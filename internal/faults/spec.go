package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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
}

// Empty reports whether the spec injects nothing.
func (s Spec) Empty() bool {
	return len(s.Flaps) == 0 && len(s.Stalls) == 0 &&
		s.DropP <= 0 && s.DupP <= 0 && s.CorruptP <= 0
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
//
// An empty string parses to the empty (inject-nothing) spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, body, _ := strings.Cut(clause, ":")
		kv, err := parseKV(body)
		if err != nil {
			return Spec{}, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
		switch kind {
		case "flap":
			f := FlapSpec{Count: 1}
			if err := kv.apply(map[string]func(string) error{
				"first":  durInto(&f.First),
				"down":   durInto(&f.Len),
				"period": durInto(&f.Period),
				"count":  intInto(&f.Count),
			}); err != nil {
				return Spec{}, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
			if f.Len <= 0 {
				return Spec{}, fmt.Errorf("faults: clause %q: down must be positive", clause)
			}
			if f.Count > 1 && f.Period <= f.Len {
				return Spec{}, fmt.Errorf("faults: clause %q: period must exceed down time", clause)
			}
			spec.Flaps = append(spec.Flaps, f)
		case "drop":
			if err := kv.apply(map[string]func(string) error{"p": probInto(&spec.DropP)}); err != nil {
				return Spec{}, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
		case "dup":
			if err := kv.apply(map[string]func(string) error{"p": probInto(&spec.DupP)}); err != nil {
				return Spec{}, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
		case "corrupt":
			if err := kv.apply(map[string]func(string) error{"p": probInto(&spec.CorruptP)}); err != nil {
				return Spec{}, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
		case "stall":
			var w StallSpec
			if err := kv.apply(map[string]func(string) error{
				"at":  durInto(&w.At),
				"for": durInto(&w.For),
			}); err != nil {
				return Spec{}, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
			if w.For <= 0 {
				return Spec{}, fmt.Errorf("faults: clause %q: for must be positive", clause)
			}
			spec.Stalls = append(spec.Stalls, w)
		default:
			return Spec{}, fmt.Errorf("faults: unknown clause kind %q", kind)
		}
	}
	// Stable: windows that open together keep the order they were written
	// in, so a rendered spec parses back to itself.
	sort.SliceStable(spec.Stalls, func(i, j int) bool { return spec.Stalls[i].At < spec.Stalls[j].At })
	return spec, nil
}

// kvPairs is an ordered key=value list from one clause body.
type kvPairs []struct{ k, v string }

func parseKV(body string) (kvPairs, error) {
	var kv kvPairs
	if strings.TrimSpace(body) == "" {
		return kv, nil
	}
	for _, pair := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("malformed pair %q (want key=value)", pair)
		}
		kv = append(kv, struct{ k, v string }{k, v})
	}
	return kv, nil
}

// apply dispatches each pair to its setter, rejecting unknown keys.
func (kv kvPairs) apply(setters map[string]func(string) error) error {
	for _, pair := range kv {
		set, ok := setters[pair.k]
		if !ok {
			return fmt.Errorf("unknown key %q", pair.k)
		}
		if err := set(pair.v); err != nil {
			return fmt.Errorf("key %q: %w", pair.k, err)
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

func intInto(dst *int) func(string) error {
	return func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		if n < 1 {
			return fmt.Errorf("count %d must be at least 1", n)
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
