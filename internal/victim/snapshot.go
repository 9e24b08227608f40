package victim

import (
	"fmt"
	"io"
	"sort"

	"accturbo/internal/frame"
	"accturbo/internal/sketch"
)

// The victim snapshot is a frame container (frame.WriteContainer), so
// victim state rides the same save/restore discipline as the defense
// core. The payload holds the geometry fingerprint, window counters, the
// heavy-keeper (sketch words via Words/SetWords, heap entries, decay
// RNG), and the hysteresis state, so save → restore → save is
// byte-identical.
const (
	snapMagic   = "ACCVICT1"
	snapVersion = 1
)

// Marshal serializes the detector's full state into w.
func (d *Detector) Marshal(w io.Writer) error {
	closed := d.closed.Load()
	var e frame.Enc
	e.U32(uint32(d.cfg.TopK))
	e.U32(sketch.TurboRows)
	e.U32(uint32(d.tk.Sketch().Cols()))

	e.U64(closed.windows)
	e.U64(d.windowBytes)

	e.U64s(d.tk.Sketch().Words())
	e.U64(d.tk.Sketch().Updates)

	entries := d.tk.Entries()
	e.U32(uint32(len(entries)))
	for _, en := range entries {
		e.U64(en.Key)
		e.U64(en.Count)
	}
	e.U64(d.tk.RNG())

	keys := make([]uint64, 0, len(d.listed))
	for k := range d.listed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.U64(k)
		e.U32(uint32(d.listed[k]))
	}

	e.U32(uint32(len(closed.victims)))
	for _, v := range closed.victims {
		e.U64(v.Key)
		e.U64(v.Bytes)
		e.F64(v.Share)
		e.U32(uint32(v.Windows))
	}

	return frame.WriteContainer(w, snapMagic, snapVersion, e.B)
}

// Unmarshal restores a Marshal snapshot into the detector. The
// detector's geometry must match the snapshot's; its previous state is
// replaced wholesale on success and untouched on error.
func (d *Detector) Unmarshal(r io.Reader) error {
	payload, err := frame.ReadContainer(r, snapMagic, snapVersion)
	if err != nil {
		return fmt.Errorf("victim: %w", err)
	}
	dd := frame.NewDec(payload)
	k := int(dd.U32())
	rows := int(dd.U32())
	cols := int(dd.U32())

	cm := d.tk.Sketch()
	if k != d.cfg.TopK || rows != sketch.TurboRows || cols != cm.Cols() {
		return fmt.Errorf("victim: snapshot geometry k=%d %dx%d, detector has k=%d %dx%d",
			k, rows, cols, d.cfg.TopK, sketch.TurboRows, cm.Cols())
	}

	windows := dd.U64()
	windowBytes := dd.U64()

	words := dd.U64s()
	updates := dd.U64()

	entries := make([]sketch.Element, dd.Count(16))
	for i := range entries {
		entries[i].Key = dd.U64()
		entries[i].Count = dd.U64()
	}
	rng := dd.U64()

	listed := make(map[uint64]int, d.cfg.TopK)
	for i, m := 0, dd.Count(12); i < m; i++ {
		key := dd.U64()
		listed[key] = int(dd.U32())
	}

	current := make([]Victim, dd.Count(28))
	for i := range current {
		current[i].Key = dd.U64()
		current[i].Bytes = dd.U64()
		current[i].Share = dd.F64()
		current[i].Windows = int(dd.U32())
	}

	if err := dd.Done(); err != nil {
		return fmt.Errorf("victim: snapshot payload: %w", err)
	}
	// Everything that can refuse does so before the first assignment.
	if len(words) != cm.Cols() || len(entries) > d.cfg.TopK {
		return fmt.Errorf("victim: snapshot has %d sketch words and %d entries, detector has %d words and room for %d",
			len(words), len(entries), cm.Cols(), d.cfg.TopK)
	}
	seen := make(map[uint64]bool, len(entries))
	for _, en := range entries {
		if seen[en.Key] {
			return fmt.Errorf("victim: snapshot heap holds key %d twice", en.Key)
		}
		seen[en.Key] = true
	}
	if err := cm.SetWords(words, updates); err != nil {
		return err
	}
	d.windowBytes = windowBytes
	d.tk.Restore(entries, rng)
	d.listed = listed
	d.closed.Store(&view{windows: windows, victims: current})
	return nil
}
