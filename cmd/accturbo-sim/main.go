// Command accturbo-sim runs one packet-level simulation: a chosen
// workload through a chosen defense over a bottleneck link, printing
// per-second throughput/drop series and a summary.
//
// Usage:
//
//	accturbo-sim -scenario pulsewave -defense accturbo -link 10e6 -duration 50
//
// Scenarios: accoriginal, pulsewave, morphing, cicddos, singleflow,
// carpet, spoofed. Defenses: fifo, red, acc, jaqen, accturbo, pifo.
package main

import (
	"flag"
	"fmt"
	"os"

	"accturbo/internal/acc"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/jaqen"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

func main() {
	scenario := flag.String("scenario", "pulsewave", "workload: accoriginal|pulsewave|morphing|cicddos|singleflow|carpet|spoofed")
	pcapIn := flag.String("pcap", "", "replay this pcap instead of a synthetic scenario (labels lost)")
	defense := flag.String("defense", "accturbo", "defense: fifo|red|acc|jaqen|accturbo|pifo")
	link := flag.Float64("link", 10e6, "bottleneck rate (bits/s)")
	duration := flag.Float64("duration", 50, "simulated seconds")
	seed := flag.Int64("seed", 1, "traffic seed")
	clusters := flag.Int("clusters", 10, "ACC-Turbo cluster count")
	csv := flag.Bool("csv", false, "print per-second series as CSV")
	flag.Parse()
	if err := traffic.CheckRates(*link, *duration); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	end := eventsim.FromSeconds(*duration)
	var src traffic.Source
	var capture *traffic.PcapSource
	var err error
	if *pcapIn != "" {
		f, ferr := os.Open(*pcapIn)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		defer f.Close()
		r, rerr := pcap.NewReader(f)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, rerr)
			os.Exit(1)
		}
		capture = traffic.NewPcapSource(r)
		src = capture
	} else {
		src, err = buildScenario(*scenario, *link, end, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	eng := eventsim.New()
	rec := netsim.NewRecorder(eventsim.Second)
	if err := buildDefense(eng, *defense, *link, rec, *clusters, src); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	eng.RunUntil(end)
	if capture != nil && capture.Err() != nil {
		fmt.Fprintln(os.Stderr, capture.Err())
		os.Exit(1)
	}

	benign := rec.DeliveredBits(packet.Benign)
	attack := rec.DeliveredBits(packet.Malicious)
	drops := rec.DropRate()
	if *csv {
		fmt.Println("time_s,benign_mbps,attack_mbps,drop_rate")
		for i := range benign {
			fmt.Printf("%d,%.4f,%.4f,%.4f\n", i, benign[i]/1e6, attack[i]/1e6, drops[i])
		}
	} else {
		fmt.Printf("%6s  %14s  %14s  %10s\n", "t(s)", "benign (Mbps)", "attack (Mbps)", "drop rate")
		for i := range benign {
			fmt.Printf("%6d  %14.3f  %14.3f  %10.4f\n", i, benign[i]/1e6, attack[i]/1e6, drops[i])
		}
	}
	fmt.Printf("\nscenario=%s defense=%s link=%.0f bps duration=%.0fs seed=%d\n",
		*scenario, *defense, *link, *duration, *seed)
	fmt.Printf("benign drops: %.2f%%   attack drops: %.2f%%\n",
		rec.BenignDropPercent(), rec.MaliciousDropPercent())
}

func buildScenario(name string, link float64, end eventsim.Time, seed int64) (traffic.Source, error) {
	switch name {
	case "accoriginal":
		return traffic.ACCOriginal(link), nil
	case "pulsewave":
		return traffic.PulseWave(link, 3*link, 5*eventsim.Second, false), nil
	case "morphing":
		return traffic.PulseWave(link, 3*link, 5*eventsim.Second, true), nil
	case "cicddos":
		src, _ := traffic.CICDDoSDay(link*0.6, link*3, 4*eventsim.Second, 2*eventsim.Second, seed)
		return src, nil
	case "singleflow":
		return traffic.Variation(traffic.SingleFlow, link*0.7, link*10, end/10, end, seed), nil
	case "carpet":
		return traffic.Variation(traffic.CarpetBombing, link*0.7, link*10, end/10, end, seed), nil
	case "spoofed":
		return traffic.Variation(traffic.SourceSpoofing, link*0.7, link*10, end/10, end, seed), nil
	default:
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
}

func buildDefense(eng *eventsim.Engine, name string, link float64, rec *netsim.Recorder, clusters int, src traffic.Source) error {
	buffer := int(link / 8 / 10)
	if buffer < 10_000 {
		buffer = 10_000
	}
	var port *netsim.Port
	switch name {
	case "fifo":
		port = netsim.NewPort(eng, queue.NewFIFO(buffer), link, rec)
	case "red":
		port = netsim.NewPort(eng, queue.NewRED(queue.DefaultREDConfig(buffer, link/8)), link, rec)
	case "acc":
		red := queue.NewRED(queue.DefaultREDConfig(buffer, link/8))
		port = netsim.NewPort(eng, red, link, rec)
		if _, err := acc.Attach(eng, port, red, acc.DefaultConfig()); err != nil {
			return err
		}
	case "jaqen":
		port = netsim.NewPort(eng, queue.NewFIFO(buffer), link, rec)
		cfg := jaqen.DefaultConfig()
		cfg.Window = eventsim.Second
		cfg.ResetPeriod = eventsim.Second
		cfg.Threshold = 1000
		if _, err := jaqen.Attach(eng, port, cfg); err != nil {
			return err
		}
	case "accturbo":
		cfg := core.DefaultConfig()
		cfg.Clustering.MaxClusters = clusters
		cfg.Clustering.SliceInit = true
		cfg.ReseedInterval = eventsim.Second
		var err error
		port, _, err = core.Attach(eng, link, rec, cfg)
		if err != nil {
			return err
		}
	case "pifo":
		q := queue.NewPIFO(buffer, func(_ eventsim.Time, p *packet.Packet) int64 {
			if p.Label == packet.Malicious {
				return 1
			}
			return 0
		})
		port = netsim.NewPort(eng, q, link, rec)
	default:
		return fmt.Errorf("unknown defense %q", name)
	}
	netsim.Replay(eng, src, port)
	return nil
}
