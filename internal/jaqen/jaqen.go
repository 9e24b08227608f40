// Package jaqen re-implements the Jaqen DDoS defense (Liu et al.,
// USENIX Security 2021) at the fidelity the paper's comparison (§7.2)
// requires: sketch-based signature detection, threshold activation
// across two consecutive windows, drop-based mitigation, and the
// switch-reprogramming downtime that dominates its reaction time when a
// mitigation module is not yet loaded.
//
//	Detection:  count-min sketch over a configured key (5-tuple for
//	            Jaqen-dagger, source IP for Jaqen-double-dagger).
//	Reaction:   the controller polls the sketch every Window; a key
//	            counted above Threshold in two consecutive windows is
//	            an attack.
//	Mitigation: a drop rule on the offending key — installed after
//	            RuleInstallDelay when the defense module is already in
//	            the switch, or after ReprogramTime of total downtime
//	            when the switch must be reprogrammed first.
package jaqen

import (
	"fmt"

	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
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
	// DefenseDeployed: when true the mitigation module is already in
	// the switch and only RuleInstallDelay applies; when false, the
	// first detection triggers a switch reprogram with ReprogramTime
	// of full downtime.
	DefenseDeployed bool
	// RateLimitBits, when positive, polices detected keys to this rate
	// instead of dropping them outright (Table 2 lists both
	// mitigations; drop is Jaqen's default in the paper's
	// experiments).
	RateLimitBits float64
	// RuleInstallDelay is the controller-to-data-plane latency.
	RuleInstallDelay eventsim.Time
	// ReprogramTime is the measured program-swap downtime (11.5 s on
	// the paper's testbed).
	ReprogramTime eventsim.Time
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
// rule yields the ~10 s best-case reaction of Fig. 7d), defense
// deployed, 50 ms rule install.
func DefaultConfig() Config {
	return Config{
		Key:                FiveTuple,
		Threshold:          1_000_000,
		Window:             5 * eventsim.Second,
		ConsecutiveWindows: 2,
		DefenseDeployed:    true,
		RuleInstallDelay:   50 * eventsim.Millisecond,
		ReprogramTime:      11_500 * eventsim.Millisecond,
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

// Runtime is the hot-reloadable half of Config: the mitigation knobs
// an operator tunes while the defense runs. The structural half —
// signature key, sketch geometry, window cadence — stays fixed because
// changing it would invalidate the sketch contents and the scheduled
// controller loop.
type Runtime struct {
	// Threshold is the per-window suspicion bound (see Config).
	Threshold uint64
	// ConsecutiveWindows gates mitigation (see Config).
	ConsecutiveWindows int
	// RateLimitBits selects policing over dropping when positive (see
	// Config).
	RateLimitBits float64
}

// Runtime extracts the hot-reloadable fields from a Config.
func (c Config) Runtime() Runtime {
	return Runtime{
		Threshold:          c.Threshold,
		ConsecutiveWindows: c.ConsecutiveWindows,
		RateLimitBits:      c.RateLimitBits,
	}
}

// Validate checks the runtime knobs, mirroring Config.Validate's
// subset.
func (r *Runtime) Validate() error {
	if r.Threshold == 0 {
		return fmt.Errorf("jaqen: zero threshold")
	}
	if r.ConsecutiveWindows < 1 {
		return fmt.Errorf("jaqen: ConsecutiveWindows %d < 1", r.ConsecutiveWindows)
	}
	if r.RateLimitBits < 0 {
		return fmt.Errorf("jaqen: RateLimitBits %v < 0", r.RateLimitBits)
	}
	return nil
}

// RuntimePatch is a partial Runtime: nil fields keep their current
// value.
type RuntimePatch struct {
	Threshold          *uint64  `json:"threshold,omitempty"`
	ConsecutiveWindows *int     `json:"consecutive_windows,omitempty"`
	RateLimitBits      *float64 `json:"rate_limit_bits,omitempty"`
}

// Apply returns base with the patch's non-nil fields replaced.
func (p RuntimePatch) Apply(base Runtime) Runtime {
	if p.Threshold != nil {
		base.Threshold = *p.Threshold
	}
	if p.ConsecutiveWindows != nil {
		base.ConsecutiveWindows = *p.ConsecutiveWindows
	}
	if p.RateLimitBits != nil {
		base.RateLimitBits = *p.RateLimitBits
	}
	return base
}

// Jaqen is one instance attached to a port.
type Jaqen struct {
	cfg Config
	eng *eventsim.Engine

	// rt holds the live mitigation knobs behind the same hot-swap
	// helper the ACC-Turbo control plane uses: the per-packet path pays
	// one atomic load, Reconfigure publishes a validated replacement.
	rt core.Hot[Runtime]

	// cm is the count-min sketch the data plane updates per packet.
	cm *sketch.TurboCountMin
	// candidates are keys whose estimate crossed the threshold in the
	// current window (the heavy-flowkey store of the real system).
	candidates map[uint64]int // key -> consecutive windows flagged
	rules      map[uint64]*rule
	flagged    map[uint64]bool // flagged during the current window

	reprogramming  bool
	reprogramDone  eventsim.Time
	reprogrammedAt eventsim.Time

	// FirstMitigation is when the first drop rule became active (-1
	// before any).
	FirstMitigation eventsim.Time

	// Mitigation accounting: how many packets the defense admitted
	// versus dropped, split by cause (an installed rule, a policer rule's
	// rate limit, or the total blackout while the switch reprograms).
	// Written from the engine's event loop and read between events, like
	// netsim.Recorder, so the fields are plain.
	admitted       uint64
	ruleDrops      uint64
	policerDrops   uint64
	downtimeDrops  uint64
	rulesInstalled uint64
}

// Attach wires Jaqen into the port's ingress pipeline and schedules its
// controller loop. It panics on an invalid configuration; AttachE is
// the error-returning variant for runtime paths.
func Attach(eng *eventsim.Engine, port *netsim.Port, cfg Config) *Jaqen {
	j, err := AttachE(eng, port, cfg)
	if err != nil {
		panic(err)
	}
	return j
}

// AttachE is Attach returning configuration errors instead of
// panicking. Nothing is wired to the port or engine when it errors.
func AttachE(eng *eventsim.Engine, port *netsim.Port, cfg Config) (*Jaqen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j := &Jaqen{
		cfg:             cfg,
		eng:             eng,
		candidates:      map[uint64]int{},
		rules:           map[uint64]*rule{},
		flagged:         map[uint64]bool{},
		FirstMitigation: -1,
		cm:              sketch.NewTurboCountMin(cfg.SketchRows, cfg.SketchCols, true),
	}
	rt := cfg.Runtime()
	j.rt.Store(&rt)
	port.AddIngress(func(now eventsim.Time, p *packet.Packet) bool {
		return j.admit(now, p)
	})
	eng.Every(cfg.Window, func(now eventsim.Time) { j.poll(now) })
	reset := cfg.ResetPeriod
	if reset <= 0 {
		reset = cfg.Window
	}
	eng.Every(reset, func(eventsim.Time) { j.cm.Reset() })
	return j, nil
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

// admit implements the data-plane path: update the sketch, mark
// heavy keys, and enforce drop rules (and reprogram downtime).
func (j *Jaqen) admit(now eventsim.Time, p *packet.Packet) bool {
	if j.reprogramming {
		if now < j.reprogramDone {
			j.downtimeDrops++
			return false // total downtime during program swap
		}
		j.reprogramming = false
	}
	k := j.key(p)
	if rl, ok := j.rules[k]; ok {
		if rl.bucket == nil {
			j.ruleDrops++
			return false // drop rule
		}
		if !rl.bucket.Allow(now, p.Size()) {
			j.policerDrops++
			return false
		}
		j.admitted++
		return true
	}
	if j.cm.Add(k, 1) > j.rt.Load().Threshold {
		j.flagged[k] = true
	}
	j.admitted++
	return true
}

// poll is the controller loop: promote keys flagged in enough
// consecutive windows to drop rules.
func (j *Jaqen) poll(now eventsim.Time) {
	consecutive := j.rt.Load().ConsecutiveWindows
	for k := range j.flagged {
		j.candidates[k]++
		if _, installed := j.rules[k]; j.candidates[k] >= consecutive && !installed {
			j.mitigate(now, k)
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

// rule is one installed mitigation: a drop (nil bucket) or a policer.
type rule struct {
	bucket *queue.TokenBucket
}

// mitigate deploys a drop or rate-limit rule for key k, modeling
// deployment latency.
func (j *Jaqen) mitigate(now eventsim.Time, k uint64) {
	rl := &rule{}
	if rate := j.rt.Load().RateLimitBits; rate > 0 {
		rl.bucket = queue.NewTokenBucket(rate, 6000)
	}
	j.rules[k] = rl // reserve so we don't double-deploy
	activate := func(at eventsim.Time) {
		if j.FirstMitigation < 0 {
			j.FirstMitigation = at
		}
		j.rulesInstalled++
	}
	if j.cfg.DefenseDeployed {
		j.eng.After(j.cfg.RuleInstallDelay, func(t eventsim.Time) { activate(t) })
		return
	}
	// Reprogram path: the switch drops everything for ReprogramTime,
	// after which the rule is active.
	if !j.reprogramming && j.reprogrammedAt == 0 {
		j.reprogramming = true
		j.reprogramDone = now + j.cfg.ReprogramTime
		j.reprogrammedAt = now
	}
	j.eng.After(j.cfg.ReprogramTime, func(t eventsim.Time) { activate(t) })
}

// Reconfigure applies a mitigation-knob patch: validated, then
// published atomically. The next packet sees the new threshold, the
// next window the new streak requirement; rules already installed keep
// their mitigation (a policer's bucket is not resized retroactively).
// It returns the new configuration generation.
func (j *Jaqen) Reconfigure(patch RuntimePatch) (uint64, error) {
	next := patch.Apply(*j.rt.Load())
	if err := next.Validate(); err != nil {
		return j.rt.Generation(), err
	}
	return j.rt.Store(&next), nil
}

// Runtime returns the live mitigation knobs.
func (j *Jaqen) Runtime() Runtime { return *j.rt.Load() }

// Rules returns the number of active drop rules.
func (j *Jaqen) Rules() int { return len(j.rules) }

// RulesInstalled counts drop rules that became active (post-delay).
func (j *Jaqen) RulesInstalled() uint64 { return j.rulesInstalled }

// Admitted counts packets the defense let through.
func (j *Jaqen) Admitted() uint64 { return j.admitted }

// RuleDrops counts packets dropped by an installed drop rule.
func (j *Jaqen) RuleDrops() uint64 { return j.ruleDrops }

// PolicerDrops counts packets denied by a rate-limit rule's bucket.
func (j *Jaqen) PolicerDrops() uint64 { return j.policerDrops }

// DowntimeDrops counts packets lost to reprogramming blackout.
func (j *Jaqen) DowntimeDrops() uint64 { return j.downtimeDrops }
