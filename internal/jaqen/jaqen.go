// Package jaqen re-implements the Jaqen DDoS defense (Liu et al.,
// USENIX Security 2021) with its mitigation module already in the
// switch, the configuration of the paper's comparison (§7.2):
// sketch-based signature detection, threshold activation across two
// consecutive windows, and drop-based mitigation. The program-swap
// downtime Jaqen pays when the module is not yet loaded is a property of
// the switch, not of the defense; Fig. 7c models it on its own
// (the program-swap row of the experiments' Fig. 7).
//
//	Detection:  count-min sketch over a configured key (5-tuple for
//	            Jaqen-dagger, source IP for Jaqen-double-dagger).
//	Reaction:   the controller polls the sketch every Window; a key
//	            counted above Threshold in two consecutive windows is
//	            an attack.
//	Mitigation: a drop rule on the offending key, which counts as
//	            installed (FirstMitigation, RulesInstalled) after
//	            RuleInstallDelay.
package jaqen

import (
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/sketch"
)

// Key selects the sketch signature.
type Key uint8

// Signature keys. The paper's Table 3 configures Jaqen-dagger with the
// 5-tuple and Jaqen-double-dagger with the source IP.
const (
	FiveTuple Key = iota
	SrcIP
)

// String names the key.
func (k Key) String() string {
	if k == SrcIP {
		return "srcip"
	}
	return "5tuple"
}

// Config parameterizes a Jaqen instance.
type Config struct {
	// Key is the sketch signature.
	Key Key
	// Threshold is the per-window packet count above which a key is
	// suspected (Fig. 8a sweeps this).
	Threshold uint64
	// Window is the controller's polling period.
	Window eventsim.Time
	// ResetPeriod is the sketch/Bloom inter-reset time (Fig. 8b). Zero
	// resets every window.
	ResetPeriod eventsim.Time
	// ConsecutiveWindows is how many successive windows must flag a
	// key before mitigation (the paper observes Jaqen requires two).
	ConsecutiveWindows int
	// RuleInstallDelay is the controller-to-data-plane latency.
	RuleInstallDelay eventsim.Time
	// SketchRows and SketchCols size the count-min sketch: the
	// wire-speed sketch.TurboCountMin with conservative update, which
	// raises just the counters at the key's current minimum and so
	// tightens the overestimate that makes Jaqen flag innocent keys
	// sharing counters with heavy ones (the sketchacc experiment
	// measures the effect).
	SketchRows, SketchCols int
}

// DefaultConfig mirrors the paper's measurement setup: 5-tuple key,
// controller polling at 5 s (which with the two-consecutive-windows
// rule yields the ~10 s best-case reaction of Fig. 7d), 50 ms rule
// install.
func DefaultConfig() Config {
	return Config{
		Key:                FiveTuple,
		Threshold:          1_000_000,
		Window:             5 * eventsim.Second,
		ConsecutiveWindows: 2,
		RuleInstallDelay:   50 * eventsim.Millisecond,
		SketchRows:         4,
		SketchCols:         65536,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Threshold == 0 {
		return fmt.Errorf("jaqen: zero threshold")
	}
	if c.Window <= 0 {
		return fmt.Errorf("jaqen: window %v must be positive", c.Window)
	}
	if c.ConsecutiveWindows < 1 {
		return fmt.Errorf("jaqen: ConsecutiveWindows %d < 1", c.ConsecutiveWindows)
	}
	if c.SketchRows < 1 || c.SketchCols < 1 {
		return fmt.Errorf("jaqen: sketch geometry %dx%d", c.SketchRows, c.SketchCols)
	}
	return nil
}

// Jaqen is one instance attached to a port.
type Jaqen struct {
	cfg Config
	eng *eventsim.Engine

	// cm is the count-min sketch the data plane updates per packet.
	cm *sketch.TurboCountMin
	// candidates are keys whose estimate crossed the threshold in the
	// current window (the heavy-flowkey store of the real system).
	candidates map[uint64]int // key -> consecutive windows flagged
	rules      map[uint64]struct{}
	flagged    map[uint64]bool // flagged during the current window

	// FirstMitigation is when the first drop rule became active (-1
	// before any).
	FirstMitigation eventsim.Time

	// Mitigation accounting: how many packets the defense admitted
	// versus dropped by a rule. Written from the engine's event loop and
	// read between events, like netsim.Recorder, so the fields are plain.
	admitted       uint64
	ruleDrops      uint64
	rulesInstalled uint64
}

// Attach wires Jaqen into the port's ingress pipeline and schedules its
// controller loop. Nothing is wired to the port or engine when it
// errors.
func Attach(eng *eventsim.Engine, port *netsim.Port, cfg Config) (*Jaqen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j := &Jaqen{
		cfg:             cfg,
		eng:             eng,
		candidates:      map[uint64]int{},
		rules:           map[uint64]struct{}{},
		flagged:         map[uint64]bool{},
		FirstMitigation: -1,
		cm:              sketch.NewTurboCountMin(cfg.SketchRows, cfg.SketchCols, true),
	}
	port.AddIngress(func(_ eventsim.Time, p *packet.Packet) bool {
		return j.admit(p)
	})
	eng.Every(cfg.Window, func(eventsim.Time) { j.poll() })
	reset := cfg.ResetPeriod
	if reset <= 0 {
		reset = cfg.Window
	}
	eng.Every(reset, func(eventsim.Time) { j.cm.Reset() })
	return j, nil
}

// AttachE forwards to Attach. It is kept only because the benchmark
// harness calls it; it goes when the harness moves to Attach.
func AttachE(eng *eventsim.Engine, port *netsim.Port, cfg Config) (*Jaqen, error) {
	return Attach(eng, port, cfg)
}

// key extracts the configured signature from a packet.
func (j *Jaqen) key(p *packet.Packet) uint64 {
	switch j.cfg.Key {
	case SrcIP:
		return uint64(p.SrcIP.Uint32())
	default:
		h := uint64(p.SrcIP.Uint32())<<32 | uint64(p.DstIP.Uint32())
		h = sketch.HashBytes(1, []byte{
			byte(h >> 56), byte(h >> 48), byte(h >> 40), byte(h >> 32),
			byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h),
			byte(p.SrcPort >> 8), byte(p.SrcPort),
			byte(p.DstPort >> 8), byte(p.DstPort),
			byte(p.Protocol),
		})
		return h
	}
}

// admit implements the data-plane path: enforce drop rules, update the
// sketch, and mark heavy keys.
func (j *Jaqen) admit(p *packet.Packet) bool {
	k := j.key(p)
	if _, ok := j.rules[k]; ok {
		j.ruleDrops++
		return false
	}
	if j.cm.Add(k, 1) > j.cfg.Threshold {
		j.flagged[k] = true
	}
	j.admitted++
	return true
}

// poll is the controller loop: promote keys flagged in enough
// consecutive windows to drop rules.
func (j *Jaqen) poll() {
	for k := range j.flagged {
		j.candidates[k]++
		if _, installed := j.rules[k]; j.candidates[k] >= j.cfg.ConsecutiveWindows && !installed {
			j.mitigate(k)
		}
	}
	// Keys not flagged this window lose their streak.
	for k := range j.candidates {
		if !j.flagged[k] {
			delete(j.candidates, k)
		}
	}
	clear(j.flagged)
}

// mitigate installs a drop rule for key k. The data plane enforces it
// from now on; it counts as active once RuleInstallDelay has passed.
func (j *Jaqen) mitigate(k uint64) {
	j.rules[k] = struct{}{}
	j.eng.After(j.cfg.RuleInstallDelay, func(at eventsim.Time) {
		if j.FirstMitigation < 0 {
			j.FirstMitigation = at
		}
		j.rulesInstalled++
	})
}

// Rules returns the number of active drop rules.
func (j *Jaqen) Rules() int { return len(j.rules) }

// RulesInstalled counts drop rules that became active (post-delay).
func (j *Jaqen) RulesInstalled() uint64 { return j.rulesInstalled }

// Admitted counts packets the defense let through.
func (j *Jaqen) Admitted() uint64 { return j.admitted }

// RuleDrops counts packets dropped by an installed drop rule.
func (j *Jaqen) RuleDrops() uint64 { return j.ruleDrops }
