package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Kind classifies a registered instrument for the text exposition.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// Sample is one exported value at snapshot time.
type Sample struct {
	Name  string
	Kind  Kind
	Value float64
	// Hist is set for KindHistogram samples.
	Hist *HistogramSnapshot
}

// Registry is a named catalogue of instruments for export. Instruments
// register once at construction; Snapshot and WriteText read them
// without blocking writers (all instruments are internally atomic).
// Names sort lexicographically on export so output is stable.
type Registry struct {
	mu      sync.Mutex
	entries map[string]func() Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]func() Sample{}}
}

func (r *Registry) register(name string, read func() Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate instrument %q", name))
	}
	r.entries[name] = read
}

// Counter registers an existing counter under name.
func (r *Registry) Counter(name string, c *Counter) {
	r.register(name, func() Sample {
		return Sample{Name: name, Kind: KindCounter, Value: float64(c.Value())}
	})
}

// CounterFunc registers a derived counter read through fn.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.register(name, func() Sample {
		return Sample{Name: name, Kind: KindCounter, Value: float64(fn())}
	})
}

// GaugeFunc registers a derived gauge read through fn.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.register(name, func() Sample {
		return Sample{Name: name, Kind: KindGauge, Value: fn()}
	})
}

// Histogram registers an existing histogram under name.
func (r *Registry) Histogram(name string, h *Histogram) {
	r.register(name, func() Sample {
		s := h.Snapshot()
		return Sample{Name: name, Kind: KindHistogram, Value: float64(s.Count), Hist: &s}
	})
}

// Vec registers each element of a vector counter as name_i.
func (r *Registry) Vec(name string, v *VecCounter) {
	for i := 0; i < v.Len(); i++ {
		i := i
		r.register(fmt.Sprintf("%s_%d", name, i), func() Sample {
			return Sample{Name: fmt.Sprintf("%s_%d", name, i), Kind: KindCounter, Value: float64(v.Value(i))}
		})
	}
}

// Snapshot reads every instrument once, sorted by name.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	reads := make([]func() Sample, 0, len(r.entries))
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		reads = append(reads, r.entries[n])
	}
	r.mu.Unlock()

	out := make([]Sample, len(reads))
	for i, read := range reads {
		out[i] = read()
	}
	return out
}

// WriteText writes the expvar/Prometheus-style text exposition of every
// instrument: a `# TYPE` line followed by `name value`, histograms
// expanded into cumulative `_bucket{le="..."}` series plus `_sum` and
// `_count`.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
			return err
		}
		if s.Kind != KindHistogram {
			if _, err := fmt.Fprintf(w, "%s %v\n", s.Name, s.Value); err != nil {
				return err
			}
			continue
		}
		var cum uint64
		for i, b := range s.Hist.Bounds {
			cum += s.Hist.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", s.Name, b, cum); err != nil {
				return err
			}
		}
		cum += s.Hist.Counts[len(s.Hist.Counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", s.Name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", s.Name, s.Hist.Sum, s.Name, s.Hist.Count); err != nil {
			return err
		}
	}
	return nil
}
