package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The experiment tests run everything in Quick mode and assert the
// paper's qualitative claims — who wins, by roughly what factor — not
// absolute numbers.

// runs holds every quick-mode Result a test asked for, by (experiment,
// seed): the shape tests and the golden manifest read the same runs, so
// each experiment runs once per seed per test binary. A caller only
// reads the Result.
var runs = struct {
	sync.Mutex
	m map[string]*Result
}{m: map[string]*Result{}}

// quickRun is experiment id's quick-mode Result at seed.
func quickRun(t *testing.T, id string, seed int64) *Result {
	t.Helper()
	return memoRun(t, fmt.Sprintf("seed%d/%s", seed, id), id, Options{Quick: true, Seed: seed})
}

// fullRun is experiment id's full-fidelity Result at seed, what
// `experiments -seed N` prints. Its sweep points fan out over every CPU;
// the bytes are the same at any worker count.
func fullRun(t *testing.T, id string, seed int64) *Result {
	t.Helper()
	return memoRun(t, fmt.Sprintf("full/seed%d/%s", seed, id), id, Options{Seed: seed, Parallel: runtime.GOMAXPROCS(0)})
}

// memoRun runs experiment id under opt once per test binary, as key.
func memoRun(t *testing.T, key, id string, opt Options) *Result {
	t.Helper()
	runs.Lock()
	defer runs.Unlock()
	if r, ok := runs.m[key]; ok {
		return r
	}
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Run(opt)
	runs.m[key] = r
	return r
}

// quick is the Result the shape tests read: seed 1, the CLI's default.
func quick(t *testing.T, id string) *Result { return quickRun(t, id, 1) }

func findSeries(t *testing.T, r *Result, name string) Series {
	t.Helper()
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	var names []string
	for _, s := range r.Series {
		names = append(names, s.Name)
	}
	t.Fatalf("series %q not found in %s (have %s)", name, r.ID, strings.Join(names, ", "))
	return Series{}
}

func mean(ys []float64, from, to int) float64 {
	if to > len(ys) {
		to = len(ys)
	}
	if from >= to {
		return 0
	}
	var sum float64
	for i := from; i < to; i++ {
		sum += ys[i]
	}
	return sum / float64(to-from)
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("%d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if _, err := ByID(e.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRenderAndCSV(t *testing.T) {
	r := &Result{ID: "x", Title: "t", XLabel: "x"}
	r.Add(Series{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}})
	r.Note("hello %d", 7)
	out := r.Render()
	if !strings.Contains(out, "hello 7") || !strings.Contains(out, "== x: t ==") {
		t.Fatalf("render missing pieces:\n%s", out)
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "x,a\n1,3\n2,4\n") {
		t.Fatalf("csv wrong:\n%s", csv)
	}
	// Scalar rendering path.
	r2 := &Result{ID: "y", Title: "t2"}
	r2.Add(Series{Name: "v", Y: []float64{1.5}})
	if !strings.Contains(r2.Render(), "1.500") {
		t.Fatalf("scalar render wrong:\n%s", r2.Render())
	}
}

func TestFig2Shapes(t *testing.T) {
	r := quick(t, "fig2")
	// FIFO: during the attack plateau (20-25 s), the attack holds most
	// of the link and benign is squeezed.
	atkFIFO := findSeries(t, r, "FIFO/Agg5")
	if m := mean(atkFIFO.Y, 20, 25); m < 0.5 {
		t.Errorf("FIFO attack share %v, want > 0.5", m)
	}
	// ACC: attack rate-limited during the plateau.
	atkACC := findSeries(t, r, "ACC/Agg5")
	if fifoM, accM := mean(atkFIFO.Y, 20, 25), mean(atkACC.Y, 20, 25); accM > 0.7*fifoM {
		t.Errorf("ACC did not limit the attack: %v vs FIFO %v", accM, fifoM)
	}
	// ACC-Turbo: benign aggregates keep their fair share through the
	// attack (each ~0.23 of the link).
	for _, agg := range []string{"ACC-Turbo/Agg1", "ACC-Turbo/Agg2", "ACC-Turbo/Agg3", "ACC-Turbo/Agg4"} {
		if m := mean(findSeries(t, r, agg).Y, 20, 25); m < 0.18 {
			t.Errorf("%s share %v under attack, want ~0.23", agg, m)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	r := quick(t, "fig3")
	fifo := findSeries(t, r, "Fig3b/FIFO")
	turbo := findSeries(t, r, "Fig3b/ACC-Turbo")
	accVsK := findSeries(t, r, "Fig3b/ACC benign drops vs K")
	// ACC-Turbo drops far less benign traffic than FIFO under the
	// pulse wave, and beats every ACC configuration.
	if turbo.Y[0] > fifo.Y[0]/3 {
		t.Errorf("ACC-Turbo %v%% vs FIFO %v%%", turbo.Y[0], fifo.Y[0])
	}
	for i, k := range accVsK.X {
		if turbo.Y[0] > accVsK.Y[i] {
			t.Errorf("ACC (K=%vs, %v%%) beat ACC-Turbo (%v%%)", k, accVsK.Y[i], turbo.Y[0])
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	r := quick(t, "fig6")
	fifoB := findSeries(t, r, "FIFO/Output Benign")
	turboB := findSeries(t, r, "ACC-Turbo/Output Benign")
	// During the first pulse (seconds 10-19) ACC-Turbo preserves far
	// more benign throughput than FIFO.
	fm, tm := mean(fifoB.Y, 11, 19), mean(turboB.Y, 11, 19)
	if tm < 3*fm {
		t.Errorf("during pulses: ACC-Turbo %v Mbps vs FIFO %v Mbps, want >= 3x", tm, fm)
	}
}

func TestFig7Shapes(t *testing.T) {
	r := quick(t, "fig7")
	joined := strings.Join(r.Notes, "\n")
	if !strings.Contains(joined, "ACC-Turbo reaction") {
		t.Fatalf("no ACC-Turbo reaction note:\n%s", joined)
	}
	if !strings.Contains(joined, "downtime during program swap") {
		t.Fatalf("no reprogram note:\n%s", joined)
	}
	// Jaqen's best-case reaction is an order of magnitude slower than
	// one ACC-Turbo controller cycle (0.5 s here): >= 5 s.
	if !strings.Contains(joined, "Jaqen (defense deployed): reaction") {
		t.Fatalf("no Jaqen reaction note:\n%s", joined)
	}
}

func TestFig8Shapes(t *testing.T) {
	r := quick(t, "fig8")
	j := findSeries(t, r, "Fig8a/Jaqen")
	turbo := findSeries(t, r, "Fig8a/ACC-Turbo")
	lo, hi := minOf(j.Y), maxOf(j.Y)
	// Threshold sensitivity: the spread across thresholds is large.
	if hi-lo < 10 {
		t.Errorf("Jaqen threshold sweep too flat: %v-%v", lo, hi)
	}
	// ACC-Turbo (threshold-free) beats Jaqen's bad configurations.
	if turbo.Y[0] > hi {
		t.Errorf("ACC-Turbo %v%% worse than Jaqen's worst %v%%", turbo.Y[0], hi)
	}
}

func TestFig9Shapes(t *testing.T) {
	r := quick(t, "fig9")
	purity := findSeries(t, r, "Fig9a/Purity by vector")
	if len(purity.Y) != 9 {
		t.Fatalf("%d vectors scored", len(purity.Y))
	}
	for i, p := range purity.Y {
		if p < 75 {
			t.Errorf("vector %d purity %v%%, want >= 75%% (paper: >= 87%%)", i, p)
		}
	}
	// Per-feature: destination address must be among the strongest
	// features, fragment offset among the weakest (paper Fig. 9b).
	fp := findSeries(t, r, "Fig9b/Purity by feature")
	daddr, foff := fp.Y[0], fp.Y[6]
	if daddr <= foff {
		t.Errorf("daddr purity %v <= f.offset purity %v", daddr, foff)
	}
}

func TestFig10Shapes(t *testing.T) {
	r := quick(t, "fig10")
	animeExh := findSeries(t, r, "Purity/Anime Exh.")
	animeFast := findSeries(t, r, "Purity/Anime Fast")
	manhFast := findSeries(t, r, "Purity/Manh. Fast")
	kmeans := findSeries(t, r, "Purity/Off. KMeans")
	last := len(animeExh.Y) - 1
	// Exhaustive beats fast for Anime (the paper's headline ablation).
	if animeExh.Y[last] < animeFast.Y[last] {
		t.Errorf("Anime exhaustive %v < fast %v", animeExh.Y[last], animeFast.Y[last])
	}
	// More clusters help the deployable configuration.
	if manhFast.Y[last] < manhFast.Y[0] {
		t.Errorf("purity decreased with more clusters: %v -> %v", manhFast.Y[0], manhFast.Y[last])
	}
	// Online fast stays within ~10 points of offline k-means.
	if kmeans.Y[last]-manhFast.Y[last] > 10 {
		t.Errorf("gap to offline too large: %v vs %v", kmeans.Y[last], manhFast.Y[last])
	}
}

func TestFig11Shapes(t *testing.T) {
	r := quick(t, "fig11")
	fifo := findSeries(t, r, "Fig11b/FIFO")
	manh := findSeries(t, r, "Fig11b/Manh. Fast Th.")
	ideal := findSeries(t, r, "Fig11b/PIFO Ideal")
	for i := range fifo.Y {
		if manh.Y[i] > fifo.Y[i] {
			t.Errorf("capacity %v: ACC-Turbo (%v%%) worse than FIFO (%v%%)", fifo.X[i], manh.Y[i], fifo.Y[i])
		}
		if ideal.Y[i] > manh.Y[i]+1 {
			t.Errorf("capacity %v: ideal (%v%%) worse than ACC-Turbo (%v%%)", fifo.X[i], ideal.Y[i], manh.Y[i])
		}
	}
	// Ranking scores: /Size rankings must not lose to their plain
	// counterparts (Fig. 11a's conclusion).
	for _, vec := range []string{"MSSQL", "SSDP"} {
		plain := findSeries(t, r, "Fig11a/"+vec+" Th. score").Y[0]
		sized := findSeries(t, r, "Fig11a/"+vec+" Th./Size score").Y[0]
		if sized < plain {
			t.Errorf("%s: Th./Size score %v < Th. score %v", vec, sized, plain)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	r := quick(t, "table3")
	fifo := findSeries(t, r, "FIFO")
	j5 := findSeries(t, r, "Jaqen+ (5-tuple)")
	jsrc := findSeries(t, r, "Jaqen++ (srcIP)")
	turbo := findSeries(t, r, "ACC-Turbo")

	// Row 0: no attack — nobody should do real damage.
	for _, s := range []Series{fifo, j5, jsrc, turbo} {
		if s.Y[0] > 5 {
			t.Errorf("%s drops %v%% with no attack", s.Name, s.Y[0])
		}
	}
	// FIFO suffers heavily under all attack variations.
	for i := 1; i <= 3; i++ {
		if fifo.Y[i] < 30 {
			t.Errorf("FIFO variation %d drops %v%%, want heavy loss", i, fifo.Y[i])
		}
	}
	// Jaqen wins only on its signature's diagonal.
	if j5.Y[1] > 10 {
		t.Errorf("Jaqen-5tuple should mitigate single flow: %v%%", j5.Y[1])
	}
	if j5.Y[2] < 30 || j5.Y[3] < 30 {
		t.Errorf("Jaqen-5tuple should fail on carpet/spoofing: %v %v", j5.Y[2], j5.Y[3])
	}
	if jsrc.Y[2] > 10 {
		t.Errorf("Jaqen-srcIP should mitigate carpet bombing: %v%%", jsrc.Y[2])
	}
	if jsrc.Y[3] < 30 {
		t.Errorf("Jaqen-srcIP should fail on spoofing: %v%%", jsrc.Y[3])
	}
	// ACC-Turbo is robust: similar moderate damage across variations,
	// always far better than FIFO.
	for i := 1; i <= 3; i++ {
		if turbo.Y[i] > fifo.Y[i]/1.5 {
			t.Errorf("ACC-Turbo variation %d: %v%% vs FIFO %v%%", i, turbo.Y[i], fifo.Y[i])
		}
	}
}

func TestTable4MatchesAppendix(t *testing.T) {
	r := quick(t, "table4")
	want := map[string]float64{
		"K (s)": 2, "p_high": 0.1, "p_target": 0.05,
		"rate EWMA interval k (s)": 0.1, "max sessions": 5,
		"release time (s)": 10, "free time (s)": 20,
		"cycle time (s)": 5, "init time (s)": 0.5,
	}
	for name, v := range want {
		if got := findSeries(t, r, name).Y[0]; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

func TestAdversarialShapes(t *testing.T) {
	r := quick(t, "adversarial")
	ev := findSeries(t, r, "Evasion/benign drops")
	// Degradation is monotone-ish: full randomization must be much
	// worse for benign traffic than the plain flood.
	if ev.Y[len(ev.Y)-1] < 2*ev.Y[0] {
		t.Errorf("evasion sweep too flat: %v", ev.Y)
	}
	sp := findSeries(t, r, "Spread/benign drops vs aggregates")
	if sp.Y[len(sp.Y)-1] < sp.Y[0] {
		t.Errorf("spreading the attack should erode the defense: %v", sp.Y)
	}
	// Swapping: the similar high-rate benign stream takes real damage.
	if findSeries(t, r, "Swapping/benign drops").Y[0] < 10 {
		t.Errorf("swapping attack ineffective: %v", findSeries(t, r, "Swapping/benign drops").Y[0])
	}
	// Imitation: attack and benign suffer comparably (indistinguishable).
	ib := findSeries(t, r, "Imitation/benign drops").Y[0]
	ia := findSeries(t, r, "Imitation/attack drops").Y[0]
	if ib == 0 || ia == 0 {
		t.Errorf("imitation should congest both classes: benign %v attack %v", ib, ia)
	}
}

func TestAblationShapes(t *testing.T) {
	r := quick(t, "ablations")
	poll := findSeries(t, r, "Poll period (s) vs benign drops")
	// A 2 s control loop must hurt vs a 50 ms one.
	if poll.Y[len(poll.Y)-1] < 2*poll.Y[0] {
		t.Errorf("poll-period sweep too flat: %v", poll.Y)
	}
	q := findSeries(t, r, "Queues vs benign drops")
	if q.Y[0] < 2*q.Y[len(q.Y)-1] {
		t.Errorf("single queue should behave like FIFO: %v", q.Y)
	}
	// Bloom vs exact sets land in the same ballpark (within 15 points).
	exact := findSeries(t, r, "Exact sets/benign drops").Y[0]
	bloom := findSeries(t, r, "Bloom sets/benign drops").Y[0]
	if bloom-exact > 15 {
		t.Errorf("bloom sets degrade too much: %v vs %v", bloom, exact)
	}
	// Reordering stays marginal (<5% of delivered packets).
	if re := findSeries(t, r, "Reordered delivered packets (%)").Y[0]; re > 5 {
		t.Errorf("reordering %v%% too high", re)
	}
}

func TestPushbackShapes(t *testing.T) {
	r := quick(t, "pushback")
	local := findSeries(t, r, "Local ACC/benign drops").Y[0]
	pushed := findSeries(t, r, "Pushback ACC/benign drops").Y[0]
	if pushed >= local {
		t.Fatalf("pushback (%v%%) should beat local ACC (%v%%)", pushed, local)
	}
	if local-pushed < 5 {
		t.Fatalf("pushback benefit too small: %v vs %v", local, pushed)
	}
	// Both still suppress the attack.
	if findSeries(t, r, "Pushback ACC/attack drops").Y[0] < 50 {
		t.Fatalf("pushback stopped suppressing the attack")
	}
}

func TestSchedulersShapes(t *testing.T) {
	r := quick(t, "schedulers")
	fifo := findSeries(t, r, "FIFO/benign drops").Y[0]
	pifo := findSeries(t, r, "PIFO (ideal)/benign drops").Y[0]
	sp := findSeries(t, r, "SP-PIFO (8 queues)/benign drops").Y[0]
	aifo := findSeries(t, r, "AIFO (single queue)/benign drops").Y[0]
	turbo := findSeries(t, r, "ACC-Turbo (no ground truth)/benign drops").Y[0]
	if pifo > fifo/4 {
		t.Errorf("ideal PIFO %v%% not far below FIFO %v%%", pifo, fifo)
	}
	for name, v := range map[string]float64{"SP-PIFO": sp, "AIFO": aifo, "ACC-Turbo": turbo} {
		if v > fifo/2 {
			t.Errorf("%s (%v%%) should clearly beat FIFO (%v%%)", name, v, fifo)
		}
	}
}

func TestTCPShapes(t *testing.T) {
	r := quick(t, "tcp")
	fifo := findSeries(t, r, "FIFO/total goodput (Mbps)").Y[0]
	turbo := findSeries(t, r, "ACC-Turbo/total goodput (Mbps)").Y[0]
	if turbo < 1.3*fifo {
		t.Fatalf("ACC-Turbo goodput %v should be >= 1.3x FIFO's %v with AIMD in the loop", turbo, fifo)
	}
	if turbo < 3 { // Mbps, of a 10 Mbps link
		t.Fatalf("defended goodput %v Mbps too low", turbo)
	}
}
