package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// series collects, per workload and metric, the values of every run in
// a file. End-to-end metrics always come from the untraced phases, which
// a traced run also has, so both kinds of run contribute.
func (f *resultFile) series() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a
// share of the median (Python's statistics.quantiles(n=4), exclusive
// method); 0 with fewer than four values.
func spread(vs []float64) float64 {
	if len(vs) < 4 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		i = max(1, min(i, len(s)-1))
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	if m := median(s); m != 0 {
		return (q(3) - q(1)) / m
	}
	return 0
}

// compareFiles prints, per workload and metric, both medians, the
// relative change of b against a and the bound. It reports false when
// an end-to-end metric got worse by more than its bound, or when a
// (workload, seed) pair both files hold disagrees on a digest: inputs
// and verdicts are exact per seed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	sa, sb := a.series(), b.series()
	fmt.Fprintf(w, "%-15s %-30s %14s %14s %9s %7s %s\n", "workload", "metric", "a median", "b median", "change", "bound", "")
	for _, wl := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := sa[wl.name][d.Name], sb[wl.name][d.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				change := 0.0
				if ma != 0 {
					change = (mb - ma) / ma
				}
				worse := change
				if d.Better == "higher" {
					worse = -change
				}
				verdict, bound := "", ""
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
					switch {
					case worse > d.Bound:
						verdict, ok = "REGRESSION", false
					case max(spread(va), spread(vb)) > d.Bound:
						verdict = "unresolved: spread wider than the bound"
					}
				}
				fmt.Fprintf(w, "%-15s %-30s %14.4f %14.4f %+8.2f%% %7s %s\n", wl.name, d.Name, ma, mb, 100*change, bound, verdict)
			}
		}
	}

	type key struct {
		workload string
		seed     int64
	}
	digests := map[key]map[string]string{}
	for _, r := range a.Runs {
		digests[key{r.Workload, r.Seed}] = r.Digests
	}
	for _, r := range b.Runs {
		da, both := digests[key{r.Workload, r.Seed}]
		if !both {
			continue
		}
		for _, name := range []string{"input_digest", "verdict_digest"} {
			if da[name] != r.Digests[name] {
				ok = false
				fmt.Fprintf(w, "%-15s seed %d: %s differs: %s vs %s\n", r.Workload, r.Seed, name, da[name], r.Digests[name])
			}
		}
	}
	return ok, nil
}
