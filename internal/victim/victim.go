// Package victim identifies the destination aggregates a volumetric
// attack is converging on — the victim-identification front-end a
// per-victim defense manager would build on (after Ding et al.,
// "In-Network Volumetric DDoS Victim Identification Using Programmable
// Commodity Switches").
//
// A Detector watches one egress link: every admitted packet's
// destination key and byte size feed a heavy-keeper top-k
// (sketch.TopK), and at each window boundary the ranked heavy
// destinations are compared against hysteresis thresholds — a
// destination becomes a victim when its share of window bytes crosses
// ActivateShare and stays listed until it falls below ReleaseShare, so
// a pulse-wave attacker oscillating around a single threshold cannot
// make the victim list flap. The ranked list is the seam a multi-tenant
// mitigation manager plugs into: per-victim scrubbing, per-victim
// ACC-Turbo instances, or upstream signaling.
//
// Determinism: given the same Observe/Advance sequence, two detectors
// produce byte-identical victim lists (the heavy-keeper's decay coin
// flips are seeded) — what lets the golden manifests pin its bytes.
//
// Ownership: like cluster.Online a Detector has one owner, the link's
// capture tap — Ding et al.'s per-switch sketch with no shared state.
// Other goroutines read only the last closed window's published result.
// A Detector has no snapshot: every window close resets its sketch and
// heap, so a restarted detector has relearned all it could restore
// (the open window, the hysteresis streaks) within one window.
package victim

import (
	"fmt"
	"sync/atomic"

	"accturbo/internal/sketch"
)

// idleBytes is the window volume under which a window is idle and the
// victim states are left untouched, so a quiet window does not delist
// everything because shares are computed over noise.
const idleBytes = 4096

// The hysteresis band, fixed as in Ding et al.'s in-switch
// identification.
const (
	// ActivateShare is the fraction of a window's bytes a destination
	// must reach to become a victim.
	ActivateShare = 0.20
	// ReleaseShare is the fraction below which a listed victim is
	// delisted; the gap to ActivateShare is the hysteresis band.
	ReleaseShare = 0.10
)

// seed drives the heavy-keeper's decay randomness.
const seed = 1

// sketchCols is the width of the backing turbo count-min
// (sketch.TurboRows rows, conservative update).
const sketchCols = 4096

// Config sizes a Detector.
type Config struct {
	// TopK is how many candidate destinations the heavy-keeper tracks;
	// the victim list is at most this long.
	TopK int
}

// DefaultConfig tracks 8 victims over a 4×4096 conservative sketch.
func DefaultConfig() Config {
	return Config{TopK: 8}
}

// Validate checks the configuration. TopK is at most the sketch width:
// New preallocates TopK heap and scratch slots, so an unbounded TopK
// would be an unbounded allocation.
func (c *Config) Validate() error {
	if c.TopK < 1 || c.TopK > sketchCols {
		return fmt.Errorf("victim: TopK %d outside [1, %d]", c.TopK, sketchCols)
	}
	return nil
}

// Victim is one listed destination aggregate.
type Victim struct {
	// Key is the destination aggregate key as fed to Observe.
	Key uint64 `json:"key"`
	// Bytes is the victim's volume in the last closed window.
	Bytes uint64 `json:"bytes"`
	// Share is Bytes over the window's total.
	Share float64 `json:"share"`
	// Windows is how many consecutive closed windows the destination
	// has been listed.
	Windows int `json:"windows"`
}

// Detector ranks heavy destination aggregates per window. Observe and
// Advance belong to the one goroutine that feeds it and take no lock.
// Victims and Windows are safe from any goroutine: they answer from the
// view New or the last Advance published, so a reader sees closed
// windows only, never the open window's traffic.
type Detector struct {
	tk *sketch.TopK

	windowBytes uint64

	// listed is the hysteresis state: key -> consecutive windows listed.
	listed map[uint64]int
	// closed is the last closed window's result; replaced whole, never
	// written through.
	closed atomic.Pointer[view]

	scratch []sketch.Element
}

// view is what other goroutines read: how many windows have closed and
// the victim list ranked at the last of them.
type view struct {
	windows uint64
	victims []Victim
}

// New builds a detector; the configuration is validated first.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Detector{
		tk:      sketch.NewTopK(cfg.TopK, sketchCols, seed),
		listed:  make(map[uint64]int, cfg.TopK),
		scratch: make([]sketch.Element, 0, cfg.TopK),
	}
	d.closed.Store(&view{})
	return d, nil
}

// Observe feeds one admitted packet's destination key and byte size
// into the current window.
func (d *Detector) Observe(dstKey uint64, bytes uint64) {
	d.tk.Offer(dstKey, bytes)
	d.windowBytes += bytes
}

// Advance closes the current window: heavy destinations are ranked,
// hysteresis state moves, the result is published to Victims and
// Windows, and the tracker resets for the next window. Returns the new
// victim list (shared with Victims; do not mutate).
func (d *Detector) Advance() []Victim {
	last := d.closed.Load()
	// An idle window keeps the list and the hysteresis state; only the
	// volume tracking resets so the next window starts clean.
	victims := last.victims
	if d.windowBytes >= idleBytes {
		victims = d.rank()
	}
	d.tk.Reset()
	d.windowBytes = 0
	d.closed.Store(&view{windows: last.windows + 1, victims: victims})
	return victims
}

// rank lists the open window's heavy destinations that pass the
// hysteresis thresholds, heaviest first, and moves the listed streaks.
func (d *Detector) rank() []Victim {
	d.scratch = d.tk.AppendTop(d.scratch[:0])
	next := make([]Victim, 0, len(d.scratch))
	seen := make(map[uint64]bool, len(d.scratch))
	for _, e := range d.scratch {
		share := float64(e.Count) / float64(d.windowBytes)
		streak, wasListed := d.listed[e.Key]
		keep := share >= ActivateShare ||
			(wasListed && share >= ReleaseShare)
		if !keep {
			continue
		}
		seen[e.Key] = true
		d.listed[e.Key] = streak + 1
		next = append(next, Victim{
			Key:     e.Key,
			Bytes:   e.Count,
			Share:   share,
			Windows: streak + 1,
		})
	}
	for k := range d.listed {
		if !seen[k] {
			delete(d.listed, k)
		}
	}
	// AppendTop ranks by count desc, key asc; victims inherit that order.
	return next
}

// Victims returns the ranked list from the last closed window (shared
// slice; do not mutate). Safe from any goroutine.
func (d *Detector) Victims() []Victim { return d.closed.Load().victims }

// Windows returns how many windows have been closed. Safe from any
// goroutine.
func (d *Detector) Windows() uint64 { return d.closed.Load().windows }
