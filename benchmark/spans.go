package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call (or batch of calls) into a layer, recorded by
// the benchmark around the call — never inside the program under test.
// A span covers at most 4096 packets; nothing is recorded per packet.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Rep     int    `json:"rep"`
	Packets int    `json:"packets"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so one code path serves both.
// It is used from one goroutine.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	stack    []int
	rep      int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep = rep
	}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rep: t.rep})
	t.stack = append(t.stack, id)
	t.spans[id].StartNs = time.Since(t.origin).Nanoseconds()
}

// end closes the innermost open span, which covered `packets` packets.
func (t *tracer) end(packets int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNs = now
	t.spans[id].Packets = packets
}

// layerTime is the roll-up of all spans of one name.
type layerTime struct {
	Name    string `json:"name"`
	Spans   int    `json:"spans"`
	Packets int    `json:"packets"`
	TotalNs int64  `json:"total_ns"`
	// SelfNs is the total minus the time the spans' children cover.
	SelfNs int64 `json:"self_ns"`
}

// perPacket returns the layer's total and self time per packet in ns.
func (l layerTime) perPacket() (total, self float64) {
	if l.Packets == 0 {
		return 0, 0
	}
	return float64(l.TotalNs) / float64(l.Packets), float64(l.SelfNs) / float64(l.Packets)
}

// layers rolls the spans up by name, in first-seen order.
func (t *tracer) layers() []layerTime {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	idx := map[string]int{}
	var out []layerTime
	for _, s := range t.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, layerTime{Name: s.Name})
		}
		d := s.EndNs - s.StartNs
		out[i].Spans++
		out[i].Packets += s.Packets
		out[i].TotalNs += d
		out[i].SelfNs += d - child[s.ID]
	}
	return out
}

// layer returns the roll-up of one span name (zero when absent).
func (t *tracer) layer(name string) layerTime {
	for _, l := range t.layers() {
		if l.Name == name {
			return l
		}
	}
	return layerTime{Name: name}
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Layers   []layerTime `json:"layers"`
	Spans    []span      `json:"spans"`
}

// write stores the spans as dir/<workload>.trace.json.
func (t *tracer) write(dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	ls := t.layers()
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].TotalNs > ls[j].TotalNs })
	data, err := json.Marshal(traceFile{Workload: t.workload, Seed: seed, Layers: ls, Spans: t.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.workload+".trace.json")
	return path, os.WriteFile(path, data, 0o644)
}
