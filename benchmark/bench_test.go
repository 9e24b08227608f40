package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accturbo/internal/traffic"
)

// tiny shrinks every input to a few thousand packets and every phase to
// a fraction of a second; the traced path runs too.
var tiny = runConfig{seed: 1, seconds: 0.3, trace: true, scale: 0.02, setups: 2, reps: 3}

// TestWorkloadsTiny runs every workload, traced, at a tiny size: all
// output checks pass, every end-to-end metric is measured and non-zero,
// and no workload reports a name the tables do not list.
func TestWorkloadsTiny(t *testing.T) {
	setEnv()
	known := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if known[d.Name] {
				t.Errorf("metric %s listed twice", d.Name)
			}
			known[d.Name] = true
		}
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, tr, err := wl.run(tiny)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (measured: %v)", d.Name, v, ok)
				}
			}
			for name := range res.Metrics {
				if !known[name] {
					t.Errorf("workload reports %s, which neither table lists", name)
				}
			}
			if res.Digests["input_digest"] == "" {
				t.Error("no input_digest")
			}
			if tr == nil || len(tr.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			for _, s := range tr.spans {
				if s.Packets > spanBatch && !strings.HasSuffix(s.Name, "pass") {
					t.Errorf("span %s covers %d packets, more than %d", s.Name, s.Packets, spanBatch)
				}
			}
		})
	}
}

// inputDigest generates a workload's input the way its run does.
func inputDigest(workload string, seed int64) string {
	var src traffic.Source
	switch workload {
	case "sim_pulse":
		src = pulseSource(simPulseLink(seed, tiny.scale))
	case "fleet_loopback":
		src, _ = cicddosSource(seed, tiny.scale)
		src = traffic.Limit(src, fleetSlice)
	default:
		src, _ = traceSource(workload, seed, tiny.scale)
	}
	dg := newDigest()
	for tp, ok := src.Next(); ok; tp, ok = src.Next() {
		dg.add(tp)
	}
	return dg.String()
}

// TestSeedDrivesInputs: same seed, same input; another seed, another.
func TestSeedDrivesInputs(t *testing.T) {
	for _, wl := range workloads {
		a, again, b := inputDigest(wl.name, 1), inputDigest(wl.name, 1), inputDigest(wl.name, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave %s then %s", wl.name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 both gave %s", wl.name, a)
		}
	}
}

// TestBenchmarkJSONMatchesPrinter fails when BENCHMARK.json names a
// metric or workload the program does not print, or the other way round.
func TestBenchmarkJSONMatchesPrinter(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, spec.Workloads[i].Name, wl.name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the program %s [%s] %s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, w.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, w.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

// TestQuietPass: the quiet pass is the piece-wise fastest of the passes
// folded into it, and the set-up clock folds its laps the same way.
func TestQuietPass(t *testing.T) {
	var q quietPass
	q.fold([]int64{5, 9, 7})
	q.fold([]int64{6, 4, 8})
	q.fold([]int64{9, 9, 3})
	if q[0] != 5 || q[1] != 4 || q[2] != 3 || q.total() != 12 {
		t.Errorf("quiet pass %v, total %v", q, q.total())
	}
	defer func() {
		if recover() == nil {
			t.Error("a pass with other pieces folded without complaint")
		}
	}()
	q.fold([]int64{1, 2})
}

// TestLatencyWithinTies: the quantile of whole-nanosecond readings is
// interpolated within the tie it falls into.
func TestLatencyWithinTies(t *testing.T) {
	r := doorsRun{timed: quietPass{100, 200, 100, 101, 100, 100}}
	// Rank 3 of 6 is the last of four readings of 100: 99.5 + 3/4.
	if got := r.latency(0.5); got != 100.25 {
		t.Errorf("median %v, want 100.25", got)
	}
	if got := r.latency(0.999); got < 199.5 || got >= 200.5 {
		t.Errorf("p99.9 %v, want within 200 ± 0.5", got)
	}
}

func TestSetupClock(t *testing.T) {
	var c setupClock
	for i := 0; i < 3; i++ {
		c.begin()
		for k := 0; k < 2*piece+1; k++ {
			c.lapEvery(k)
		}
		c.end()
	}
	// Laps before items 0, piece and 2·piece, and the one that ends it.
	if c.runs != 3 || len(c.quiet) != 4 || c.seconds() < 0 || c.spent < c.quiet.total() {
		t.Errorf("%d set-ups, %d pieces, quiet %v of %v spent", c.runs, len(c.quiet), c.quiet.total(), c.spent)
	}
}

// TestTraceWriter: nesting, self time, and the file round trip.
func TestTraceWriter(t *testing.T) {
	var off *tracer
	off.begin("ignored") // the untraced run: no-ops on a nil tracer
	off.end(1)

	tr := newTracer("unit")
	tr.begin("parent")
	tr.begin("child")
	tr.end(10)
	tr.begin("child")
	tr.end(5)
	tr.end(15)
	// Pin the clock readings so self time is exact.
	tr.spans[0].StartNs, tr.spans[0].EndNs = 0, 1000
	tr.spans[1].StartNs, tr.spans[1].EndNs = 100, 400
	tr.spans[2].StartNs, tr.spans[2].EndNs = 500, 700

	parent, child := tr.layer("parent"), tr.layer("child")
	if parent.TotalNs != 1000 || parent.SelfNs != 500 || parent.Packets != 15 {
		t.Errorf("parent roll-up %+v", parent)
	}
	if child.Spans != 2 || child.TotalNs != 500 || child.SelfNs != 500 || child.Packets != 15 {
		t.Errorf("child roll-up %+v", child)
	}
	if tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("parents %d, %d", tr.spans[0].Parent, tr.spans[1].Parent)
	}

	path, err := tr.write(t.TempDir(), 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back traceFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "unit" || back.Seed != 7 || len(back.Spans) != 3 || len(back.Layers) != 2 {
		t.Errorf("round trip: %+v", back)
	}
}

// TestCompare: a loss beyond the bound fails, one within it passes, and
// digests of the same (workload, seed) must agree.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughput float64, digest string) string {
		f := resultFile{Runs: []*result{{
			Workload: "pulse_wave", Seed: 1,
			Metrics: map[string]float64{"throughput_mops": throughput, "setup_s": 1, "latency_p50_ns": 100},
			Digests: map[string]string{"input_digest": digest, "verdict_digest": "v"},
		}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "throughput_mops" {
			bound = d.Bound
		}
	}
	base := write("a.json", 4, "d")
	for _, tc := range []struct {
		name       string
		throughput float64
		digest     string
		ok         bool
	}{
		{"within", 4 * (1 - bound/2), "d", true},
		{"beyond", 4 * (1 - 2*bound), "d", false},
		{"better", 8, "d", true},
		{"digest", 4, "other", false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, write(tc.name+".json", tc.throughput, tc.digest))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare reported %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
	}
}

// TestContractLine: exactly the four keys, and the metric set follows
// the trace flag.
func TestContractLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := newResult("w", runConfig{trace: traced})
		res.Attempted = 3
		var got struct {
			Correct   *bool
			Attempted *uint64
			Failed    *uint64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(contractLine(res)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != len(want) {
			t.Fatalf("traced=%v: %+v", traced, got)
		}
		for _, d := range want {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value == nil {
				t.Errorf("traced=%v: metric %s missing or wrong unit", traced, d.Name)
			}
		}
	}
}
