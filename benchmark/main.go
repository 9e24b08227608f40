// Command benchmark measures the whole defense — wire door, sync door,
// simulator and TCP fleet — end to end and layer by layer, from seeded
// inputs, checking its outputs on every run. BENCHMARK.json at the root
// of the repository names what it reports; README.md here explains it.
//
//	go run ./benchmark                               # all workloads, seed 1
//	go run ./benchmark -workload pulse_wave -trace 1 # one workload, traced
//	go run ./benchmark -runs 10 -out a.json          # ten seeds, keep the numbers
//	go run ./benchmark -compare a.json b.json        # gate b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

// runConfig is what one workload run is given. The program under test
// sees none of it: only the inputs generated from seed.
type runConfig struct {
	seed    int64
	seconds float64 // time spent in timed phases
	trace   bool
	scale   float64 // 1 is full size; the tests shrink the inputs
	setups  int     // fewest set-up repetitions (quiet set-up reported)
	reps    int     // timed repetitions of each phase (median reported)
}

// moreSetups reports whether to set up once more: rc.setups times at
// least, then until a ninth of the run's seconds has gone into set-up or
// it has run five times that often, so that each piece of the quiet
// set-up (see setupClock) is the fastest of more than a handful.
func (rc runConfig) moreSetups(c *setupClock) bool {
	return c.runs < rc.setups || (c.runs < 5*rc.setups && c.spent.Seconds() < rc.seconds/9)
}

var workloads = []struct {
	name string
	why  string
	run  func(rc runConfig) (*result, *tracer, error)
}{
	{"benign_diverse", "CAIDA-like background, ~93 k full-size frames in a ~70 MB image, beyond L2 and most LLCs; spread flows and feature values make the clusterer dearest here and pcap iteration miss the caches",
		func(rc runConfig) (*result, *tracer, error) { return runTraceWorkload("benign_diverse", rc) }},
	{"pulse_wave", "the 50 s morphing pulse wave, ~108 k small frames of few aggregates; the clusterer is cheapest here and the producer side (pcap, decode, ring) is the slower stage",
		func(rc runConfig) (*result, *tracer, error) { return runTraceWorkload("pulse_wave", rc) }},
	{"cicddos_mix", "background plus nine labelled vectors at one victim, ~132 k packets; middle ground for the clusterer, feeds the victim detector, and has labels for a quality score",
		func(rc runConfig) (*result, *tracer, error) { return runTraceWorkload("cicddos_mix", rc) }},
	{"sim_pulse", "the morphing pulse wave through a simulated bottleneck, once under ACC-Turbo and once under Jaqen; traffic, eventsim, netsim and queue do the work and yield the paper's benign-drop number",
		runSimWorkload},
	{"fleet_loopback", "one TCP coordinator and two nodes over 127.0.0.1, one closed-loop poll-to-deploy round at a time; the only workload on the fleet codec, transport and snapshot merge",
		runFleetWorkload},
}

// setEnv fixes the load shape: one process on at most two threads.
func setEnv() string {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d %s/%s; fleet traffic crosses loopback, not a real link",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
}

// report prints one run for a reader: digests, every metric the run
// measured by name with its unit, the layer roll-up and the checks.
func report(w io.Writer, res *result, tr *tracer) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s)\n", res.Workload, res.Seed, mode)
	for _, k := range sortedKeys(res.Digests) {
		fmt.Fprintf(w, "  %-28s %s\n", k, res.Digests[k])
	}
	section := func(title string, defs []metricDef) {
		fmt.Fprintf(w, "  %s\n", title)
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "    %-30s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	section("end-to-end", endToEnd)
	section("per-layer", perLayer)
	if tr != nil {
		fmt.Fprintf(w, "  spans (total and self time per packet)\n")
		for _, l := range tr.layers() {
			total, self := l.perPacket()
			fmt.Fprintf(w, "    %-30s %8d spans %12.1f ns %12.1f ns self\n", l.Name, l.Spans, total, self)
		}
	}
	for _, c := range res.Checks {
		if c.OK {
			fmt.Fprintf(w, "  check %-28s ok ×%d\n", c.Name, c.Count)
		} else {
			fmt.Fprintf(w, "  check %-28s FAILED: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  attempted %d failed %d\n", res.Attempted, res.Failed)
}

// contractLine is the last line of standard output: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func contractLine(res *result) string {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(line)
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  string    `json:"env"`
	Runs []*result `json:"runs"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of every input generator")
	seconds := flag.Float64("seconds", defaultSeconds, "seconds spent in timed phases, per workload")
	trace := flag.Int("trace", 0, "1: also run the traced phases and the per-layer ledger, write benchmark/out/<workload>.trace.json")
	runs := flag.Int("runs", 1, "repeat the whole set this often, on seeds seed, seed+1, …")
	out := flag.String("out", "", "write every run's numbers to this JSON file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *workload != "all" {
		selected = nil
		names := make([]string, len(workloads))
		for i, wl := range workloads {
			names[i] = wl.name
			if wl.name == *workload {
				selected = workloads[i : i+1]
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s, all)\n", *workload, strings.Join(names, ", "))
			os.Exit(2)
		}
	}

	file := resultFile{Env: setEnv()}
	fmt.Println("accturbo benchmark:", file.Env)
	exit := 0
	for run := 0; run < *runs; run++ {
		for _, wl := range selected {
			rc := runConfig{seed: *seed + int64(run), seconds: *seconds, trace: *trace != 0, scale: 1, setups: 5, reps: 6}
			res, tr, err := wl.run(rc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				os.Exit(1)
			}
			report(os.Stdout, res, tr)
			if tr != nil {
				path, err := tr.write("benchmark/out", rc.seed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: writing spans: %v\n", wl.name, err)
					os.Exit(1)
				}
				fmt.Printf("  spans written to %s\n", path)
			}
			if !res.correct() {
				exit = 1
			}
			file.Runs = append(file.Runs, res)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if len(file.Runs) > 0 {
		fmt.Println(contractLine(file.Runs[len(file.Runs)-1]))
	}
	os.Exit(exit)
}
