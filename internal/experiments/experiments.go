// Package experiments regenerates every table and figure of the
// paper's evaluation (§2, §7, §8). Each experiment is a pure function
// from Options to a Result holding named data series — the same rows
// and curves the paper plots — so the CLI, the benchmarks, and
// EXPERIMENTS.md all derive from one implementation.
//
// Scaling note: the hardware experiments (§7) ran at 10–100 Gbps; the
// simulator reproduces them at 1:1000 scale (Mbps instead of Gbps) with
// all rate *ratios* preserved — the bandwidth-share and drop-percentage
// results are scale free. The paper's own simulations (§8) already use
// Mbps bottlenecks, which are reproduced directly.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Options tune experiment execution.
type Options struct {
	// Quick shrinks durations and rates for CI and benchmarks while
	// preserving every qualitative shape. Full runs regenerate the
	// paper-fidelity numbers.
	Quick bool
	// Seed drives all traffic generation.
	Seed int64
	// Parallel is the worker count for independent sweep points within
	// an experiment (thresholds, cluster counts, bottlenecks, attack
	// variations). 0 or 1 runs sequentially. Results are byte-identical
	// at any worker count: every sweep point derives its own RNG from
	// Seed and writes to its own slot, and series assembly is ordered.
	Parallel int
}

// Series is one named curve or table column.
type Series struct {
	Name string
	// X holds the independent variable (time in seconds, threshold,
	// cluster count...); nil for scalar rows.
	X []float64
	// Y holds the dependent values.
	Y []float64
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes records scalar findings (reaction times, headline
	// percentages) in human-readable form.
	Notes []string
}

// Note appends a formatted scalar finding.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Add appends a series.
func (r *Result) Add(s Series) { r.Series = append(r.Series, s) }

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) *Result
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig2", Title: "Fig. 2: ACC original experiment (FIFO / ACC / K sweep / ACC-Turbo)", Run: Fig2},
		{ID: "fig3", Title: "Fig. 3: pulse-wave (morphing) attack and speed-vs-accuracy", Run: Fig3},
		{ID: "fig6", Title: "Fig. 6: pulse-wave mitigation on the hardware setup (scaled)", Run: Fig6},
		{ID: "fig7", Title: "Fig. 7: reaction times (ACC-Turbo vs Jaqen)", Run: Fig7},
		{ID: "fig8", Title: "Fig. 8: Jaqen threshold-configuration sensitivity", Run: Fig8},
		{ID: "fig9", Title: "Fig. 9: clustering performance by attack vector and feature", Run: Fig9},
		{ID: "fig10", Title: "Fig. 10: clustering strategies vs number of clusters", Run: Fig10},
		{ID: "fig11", Title: "Fig. 11: scheduling rankings and bottleneck sweep", Run: Fig11},
		{ID: "table3", Title: "Table 3: mitigation efficiency under attack variations", Run: Table3},
		{ID: "table4", Title: "Table 4: ACC parameters", Run: Table4},
		{ID: "adversarial", Title: "Extension: §9 evasion and weaponization, quantified", Run: Adversarial},
		{ID: "ablations", Title: "Extension: design-knob ablations", Run: Ablations},
		{ID: "pushback", Title: "Extension: original-ACC pushback vs local ACC", Run: PushbackExperiment},
		{ID: "schedulers", Title: "Extension: §5.1 scheduler realizations (PIFO / SP-PIFO / AIFO)", Run: Schedulers},
		{ID: "chaos", Title: "Extension: pulse-wave under injected faults (fail-open chaos harness)", Run: Chaos},
		{ID: "tcp", Title: "Extension: closed-loop AIMD background under a pulse wave", Run: TCPExperiment},
		{ID: "liveops", Title: "Extension: hot reconfigure and snapshot/restore mid-pulse-wave", Run: LiveOps},
		{ID: "fleet", Title: "Extension: distributed-source pulse wave — single-node vs fleet ranking", Run: Fleet},
		{ID: "sketchacc", Title: "Extension: count-min accuracy — compatible vs turbo vs conservative update", Run: SketchAcc},
		{ID: "victims", Title: "Extension: heavy-keeper victim identification under a pulse wave", Run: Victims},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

// Render formats the result as aligned text: notes first, then one
// table with X and all series as columns (or name/value rows for
// scalar series).
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "   %s\n", n)
	}
	if len(r.Series) == 0 {
		return b.String()
	}

	scalar := true
	for _, s := range r.Series {
		if len(s.Y) != 1 || s.X != nil {
			scalar = false
			break
		}
	}
	if scalar {
		w := 0
		for _, s := range r.Series {
			if len(s.Name) > w {
				w = len(s.Name)
			}
		}
		for _, s := range r.Series {
			fmt.Fprintf(&b, "   %-*s  %10.3f\n", w, s.Name, s.Y[0])
		}
		return b.String()
	}

	// Columnar: use the longest X axis as the spine.
	spine := r.spine()
	fmt.Fprintf(&b, "   %12s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %14s", truncate(s.Name, 14))
	}
	b.WriteByte('\n')
	for i := range spine {
		fmt.Fprintf(&b, "   %12.3f", spine[i])
		for _, s := range r.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "  %14.4f", s.Y[i])
			} else {
				fmt.Fprintf(&b, "  %14s", "")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the result as comma-separated values with a header row.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString(r.XLabel)
	for _, s := range r.Series {
		b.WriteByte(',')
		b.WriteString(strings.ReplaceAll(s.Name, ",", ";"))
	}
	b.WriteByte('\n')
	spine := r.spine()
	if spine == nil && len(r.Series) > 0 {
		spine = make([]float64, len(r.Series[0].Y))
		for i := range spine {
			spine[i] = float64(i)
		}
	}
	for i := range spine {
		fmt.Fprintf(&b, "%g", spine[i])
		for _, s := range r.Series {
			b.WriteByte(',')
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%g", s.Y[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// spine is the longest X axis of the result's series.
func (r *Result) spine() []float64 {
	var spine []float64
	for _, s := range r.Series {
		if len(s.X) > len(spine) {
			spine = s.X
		}
	}
	return spine
}

// truncate shortens s to at most n runes, replacing the tail with an
// ellipsis. Indexing by runes (not bytes) keeps multibyte UTF-8
// sequences intact.
func truncate(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	runes := []rune(s)
	return string(runes[:n-1]) + "…"
}
