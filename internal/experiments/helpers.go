package experiments

import (
	"fmt"

	"accturbo/internal/acc"
	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
	"accturbo/internal/jaqen"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// must unwraps a constructor whose configuration the experiment fixed:
// an error there is a bug in the experiment, not a result to report.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// sized picks an experiment's full-fidelity or quick-mode value.
func sized[T any](opt Options, full, quick T) T {
	if opt.Quick {
		return quick
	}
	return full
}

// bufferFor sizes port buffers like the rest of the repo: ~100 ms of
// line rate.
func bufferFor(linkRate float64) int {
	b := int(linkRate / 8 / 10)
	if b < 10_000 {
		b = 10_000
	}
	return b
}

// topo is the network a leg's build declares on a fresh engine: ports,
// each a defense at a link rate with its own recorder; links between
// them; and the sources that feed them, replayed or closed-loop. The
// sources stamp packets from the leg's one pool, and every port but a
// chained one releases them to it.
type topo struct {
	eng  *eventsim.Engine
	pool *packet.Pool
	outs []*legOut
}

// port builds def at link as the topology's next port and returns what
// the build left for the readout.
func (t *topo) port(def defense, link float64) *legOut {
	o := &legOut{rec: netsim.NewRecorder(eventsim.Second)}
	o.port = def(t.eng, o.rec, link, o)
	o.port.SetPool(t.pool)
	t.outs = append(t.outs, o)
	return o
}

// chain links from's deliveries into to after delay. Those packets live
// on downstream, so from releases nothing to the pool (Port.SetPool).
func (t *topo) chain(from, to *legOut, delay eventsim.Time) {
	from.port.SetPool(nil)
	netsim.Chain(t.eng, from.port, to.port, delay)
}

// replay feeds src into o's port. A source that stamps no packets from
// the pool (a capture) takes none back, so its port releases none to it:
// the pool would keep every packet it delivered alive.
func (t *topo) replay(src traffic.Source, o *legOut) {
	if _, ok := src.(traffic.Pooled); !ok {
		o.port.SetPool(nil)
	}
	traffic.AttachPool(src, t.pool)
	netsim.Replay(t.eng, src, o.port)
}

// aimd binds a closed-loop AIMD sender to o's port.
func (t *topo) aimd(cfg netsim.AIMDConfig, o *legOut) *netsim.AIMD {
	f := netsim.NewAIMD(t.eng, o.port, cfg)
	f.SetPool(t.pool)
	return f
}

// replay runs one leg: a fresh engine and pool, the topology build
// declares on them, run until end. It then checks that no port lost a
// packet, and returns the first port built.
func replay(end eventsim.Time, build func(t *topo)) *legOut {
	t := &topo{eng: eventsim.New(), pool: packet.NewPool()}
	build(t)
	t.eng.RunUntil(end)
	for _, o := range t.outs {
		checkConservation(t.eng, o.port, o.rec)
	}
	return t.outs[0]
}

// checkConservation panics unless every packet the port was offered is
// accounted for: delivered, dropped for some reason, still queued, or
// the one frame that may be on the wire. A frame can only be on the
// wire while its transmit completion is pending in the engine.
func checkConservation(eng *eventsim.Engine, port *netsim.Port, rec *netsim.Recorder) {
	arrived := rec.ArrivedBenign() + rec.ArrivedMalicious()
	held := rec.DeliveredBenignPkts() + rec.DeliveredMaliciousPkts() + uint64(port.Qdisc().Len())
	for r := 0; r < 256; r++ {
		held += rec.DroppedFor(queue.DropReason(r))
	}
	wire := uint64(min(eng.Pending(), 1))
	if held > arrived || arrived > held+wire {
		panic(fmt.Sprintf("experiments: port at %.0f b/s lost packets by t=%v: %d arrived, %d delivered, dropped or queued",
			port.RateBits(), eng.Now(), arrived, held))
	}
}

// scenario is a single-bottleneck leg's traffic: a fresh source per
// run, the bottleneck rate it crosses, and the time the run ends.
type scenario struct {
	src  func() traffic.Source
	link float64
	end  eventsim.Time
}

// defense builds a port on eng, recording into rec, and keeps whatever
// it attaches in o for the readout.
type defense func(eng *eventsim.Engine, rec *netsim.Recorder, link float64, o *legOut) *netsim.Port

// leg is one row of a figure: the topology build declares, run until
// end, and the readout that turns the run into series and notes (nil
// when the figure reads the runs itself). The readout sees the first
// port built; a build that needs the others keeps them. A leg without a
// build (again) reads the run of the earlier row same.
type leg struct {
	end   eventsim.Time
	build func(t *topo)
	read  func(r *Result, o *legOut)
	same  int
}

// through is the single-bottleneck leg: sc's source replayed through def.
func (sc scenario) through(def defense, read func(*Result, *legOut)) leg {
	return leg{end: sc.end, build: func(t *topo) { t.replay(sc.src(), t.port(def, sc.link)) }, read: read}
}

// again is a row that reads earlier row i's run instead of repeating an
// identical one.
func again(i int, read func(*Result, *legOut)) leg { return leg{read: read, same: i} }

// legOut is what one port's build leaves for the readout: its recorder,
// the port, and whatever its defense attached.
type legOut struct {
	rec   *netsim.Recorder
	port  *netsim.Port
	turbo *core.Turbo
	acc   *acc.ACC
	jaqen *jaqen.Jaqen
	inj   *faults.Injector
	scoreTap
}

// runLegs runs a figure's legs on the RunParallel pool, then hands each
// run to its row's readout strictly in row order, so the result is
// byte-identical at any worker count. Readouts run one at a time, so a
// row's readout may use what an earlier row's readout kept. The runs
// are returned in row order for the figure's own notes.
func runLegs(opt Options, r *Result, legs []leg) []*legOut {
	outs := make([]*legOut, len(legs))
	RunParallel(opt, len(legs), func(i int) {
		if legs[i].build != nil {
			outs[i] = replay(legs[i].end, legs[i].build)
		}
	})
	for i, l := range legs {
		if l.build == nil {
			outs[i] = outs[l.same]
		}
		if l.read != nil {
			l.read(r, outs[i])
		}
	}
	return outs
}

// scheme is a named defense: one row of a grid figure.
type scheme struct {
	name string
	def  defense
}

// benignGrid runs every scheme over every scenario and returns the
// benign-drop percentages indexed [scheme][scenario].
func benignGrid(opt Options, schemes []scheme, scs []scenario) [][]float64 {
	var legs []leg
	for _, s := range schemes {
		for _, sc := range scs {
			legs = append(legs, sc.through(s.def, nil))
		}
	}
	drops := benignDrops(runLegs(opt, nil, legs))
	grid := make([][]float64, len(schemes))
	for i := range grid {
		grid[i] = drops[i*len(scs) : (i+1)*len(scs)]
	}
	return grid
}

// fifo is the undefended bottleneck.
func fifo(eng *eventsim.Engine, rec *netsim.Recorder, link float64, _ *legOut) *netsim.Port {
	return netsim.NewPort(eng, queue.NewFIFO(bufferFor(link)), link, rec)
}

// bare schedules the bottleneck with the qdisc mk builds for its buffer.
func bare(mk func(buffer int) queue.Qdisc) defense {
	return func(eng *eventsim.Engine, rec *netsim.Recorder, link float64, _ *legOut) *netsim.Port {
		return netsim.NewPort(eng, mk(bufferFor(link)), link, rec)
	}
}

// groundTruthRank ranks benign packets ahead of malicious ones: the
// labels a real scheduler never sees.
func groundTruthRank(_ eventsim.Time, p *packet.Packet) int64 {
	if p.Label == packet.Malicious {
		return 1
	}
	return 0
}

// pifoIdeal is the ground-truth PIFO (the paper's "PIFO Ideal").
var pifoIdeal = bare(func(buffer int) queue.Qdisc { return queue.NewPIFO(buffer, groundTruthRank) })

// withACC is RED plus the classic ACC agent.
func withACC(cfg acc.Config) defense {
	return func(eng *eventsim.Engine, rec *netsim.Recorder, link float64, o *legOut) *netsim.Port {
		port := netsim.NewPort(eng, queue.NewRED(bufferFor(link), link/8), link, rec)
		o.acc = must(acc.Attach(eng, port, cfg))
		return port
	}
}

// withJaqen is a FIFO bottleneck protected by Jaqen.
func withJaqen(cfg jaqen.Config) defense {
	return func(eng *eventsim.Engine, rec *netsim.Recorder, link float64, o *legOut) *netsim.Port {
		port := fifo(eng, rec, link, o)
		o.jaqen = must(jaqen.Attach(eng, port, cfg))
		return port
	}
}

// turbo is an ACC-Turbo bottleneck with the Fig. 11a score tap on its
// per-packet queue assignments. Under faulted, the injector's clock
// wrapper stalls its control loop.
func turbo(cfg core.Config) defense {
	return func(eng *eventsim.Engine, rec *netsim.Recorder, link float64, o *legOut) *netsim.Port {
		c := cfg
		if o.inj != nil {
			c.WrapClock = o.inj.ClockWrapper()
		}
		port, t, err := core.Attach(eng, link, rec, c)
		if err != nil {
			panic(err)
		}
		o.turbo = t
		t.OnAssign = func(now eventsim.Time, p *packet.Packet, a cluster.Assignment) {
			o.add(now, p.Label, t.QueueOf(a.Cluster))
		}
		return port
	}
}

// Simulate replays src through one bottleneck of link bits/s under the
// named defense (fifo, red, acc, jaqen, accturbo or pifo) until end, as
// a conservation-checked leg, and returns the port's recorder. Only
// accturbo reads clusters, its cluster count.
func Simulate(name string, src traffic.Source, link float64, end eventsim.Time, clusters int) (*netsim.Recorder, error) {
	jcfg, tcfg := jaqen.DefaultConfig(), core.DefaultConfig()
	jcfg.Window, jcfg.ResetPeriod, jcfg.Threshold = eventsim.Second, eventsim.Second, 1000
	tcfg.Clustering.MaxClusters, tcfg.Clustering.SliceInit, tcfg.ReseedInterval = clusters, true, eventsim.Second
	def, ok := map[string]defense{
		"fifo": fifo, "red": bare(func(buffer int) queue.Qdisc { return queue.NewRED(buffer, link/8) }),
		"acc": withACC(acc.DefaultConfig()), "jaqen": withJaqen(jcfg), "accturbo": turbo(tcfg), "pifo": pifoIdeal,
	}[name]
	if !ok {
		return nil, fmt.Errorf("unknown defense %q", name)
	}
	if err := tcfg.Validate(); name == "accturbo" && err != nil {
		return nil, err
	}
	return replay(end, func(t *topo) { t.replay(src, t.port(def, link)) }).rec, nil
}

// faulted runs def under a fault injector: packet mangling and link
// flaps at the port, plus whatever def takes from o.inj.
func faulted(def defense, seed uint64, spec faults.Spec) defense {
	return func(eng *eventsim.Engine, rec *netsim.Recorder, link float64, o *legOut) *netsim.Port {
		o.inj = faults.New(seed, spec)
		port := def(eng, rec, link, o)
		o.inj.AttachInterposer(eng, port)
		o.inj.FlapLinks(eng, port)
		return port
	}
}

// scoreTap accumulates the Fig. 11a score: per-second sums of assigned
// queue index and packet counts, per class.
type scoreTap struct {
	queueSum [2][]float64
	pktCount [2][]float64
}

func (s *scoreTap) add(now eventsim.Time, label packet.Label, q int) {
	bin := int(now / eventsim.Second)
	l := 0
	if label == packet.Malicious {
		l = 1
	}
	for len(s.queueSum[l]) <= bin {
		s.queueSum[l] = append(s.queueSum[l], 0)
		s.pktCount[l] = append(s.pktCount[l], 0)
	}
	s.queueSum[l][bin] += float64(q)
	s.pktCount[l][bin]++
}

// score is the Fig. 11a metric: the percentage of one-second intervals
// (containing both classes) in which benign traffic received a better
// (lower-index) average queue than malicious traffic.
func (s *scoreTap) score() float64 {
	n := min(len(s.queueSum[0]), len(s.queueSum[1]))
	mixed, won := 0, 0
	for i := 0; i < n; i++ {
		if s.pktCount[0][i] == 0 || s.pktCount[1][i] == 0 {
			continue
		}
		mixed++
		if s.queueSum[0][i]/s.pktCount[0][i] < s.queueSum[1][i]/s.pktCount[1][i] {
			won++
		}
	}
	if mixed == 0 {
		return 0
	}
	return 100 * float64(won) / float64(mixed)
}

// benignDrops reads each run's benign-drop percentage.
func benignDrops(outs []*legOut) []float64 {
	ys := make([]float64, len(outs))
	for i, o := range outs {
		ys[i] = o.rec.BenignDropPercent()
	}
	return ys
}

// classThroughput is the readout of per-class output throughput, as
// the series prefix+"Benign" and prefix+"Attack".
func classThroughput(prefix string) func(*Result, *legOut) {
	return func(r *Result, o *legOut) {
		r.Add(throughputSeries(o.rec, packet.Benign, prefix+"Benign"))
		r.Add(throughputSeries(o.rec, packet.Malicious, prefix+"Attack"))
	}
}

// flatSeries is a constant line over x, for a baseline drawn across a
// sweep.
func flatSeries(name string, x []float64, v float64) Series {
	y := make([]float64, len(x))
	for i := range y {
		y[i] = v
	}
	return Series{Name: name, X: x, Y: y}
}

// secondSeries puts one value per second on a whole-second x-axis,
// each divided by div.
func secondSeries(name string, ys []float64, div float64) Series {
	x := make([]float64, len(ys))
	y := make([]float64, len(ys))
	for i, v := range ys {
		x[i] = float64(i)
		y[i] = v / div
	}
	return Series{Name: name, X: x, Y: y}
}

// shareSeries converts a per-flow delivered series into fraction of
// link bandwidth, sampled at whole seconds.
func shareSeries(rec *netsim.Recorder, flowID uint32, linkRate float64) Series {
	return secondSeries("", rec.FlowDeliveredBits(flowID), linkRate)
}

// totalShareSeries is the "All" line: total delivered / link rate.
func totalShareSeries(rec *netsim.Recorder, linkRate float64) Series {
	total := rec.DeliveredBits(packet.Benign)
	for i, v := range rec.DeliveredBits(packet.Malicious) {
		total[i] += v
	}
	return secondSeries("All", total, linkRate)
}

// dropRateSeries wraps Recorder.DropRate with an x-axis.
func dropRateSeries(rec *netsim.Recorder, name string) Series {
	return secondSeries(name, rec.DropRate(), 1)
}

// throughputSeries returns delivered bits/s for a class, in Mbps.
func throughputSeries(rec *netsim.Recorder, label packet.Label, name string) Series {
	return secondSeries(name, rec.DeliveredBits(label), 1e6)
}
