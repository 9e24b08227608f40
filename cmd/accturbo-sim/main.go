// Command accturbo-sim runs one packet-level simulation: a chosen
// workload through a chosen defense over a bottleneck link, printing
// per-second throughput/drop series and a summary.
//
// Usage:
//
//	accturbo-sim -scenario pulsewave -defense accturbo -link 10e6 -duration 50
//
// Scenarios: accoriginal, pulsewave, morphing, cicddos, singleflow,
// carpet, spoofed, background (traffic.Scenario), or -pcap to replay a
// capture through traffic.PcapSource. Defenses: fifo, red, acc, jaqen,
// accturbo, pifo.
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
	scenario := flag.String("scenario", "pulsewave", "workload: "+traffic.ScenarioNames)
	pcapIn := flag.String("pcap", "", "replay this pcap instead of a synthetic scenario (labels lost; malformed frames skipped)")
	defense := flag.String("defense", "accturbo", "defense: fifo|red|acc|jaqen|accturbo|pifo")
	link := flag.Float64("link", 10e6, "bottleneck rate (bits/s)")
	duration := flag.Float64("duration", 50, "simulated seconds")
	seed := flag.Int64("seed", 1, "traffic seed")
	clusters := flag.Int("clusters", 10, "ACC-Turbo cluster count")
	csv := flag.Bool("csv", false, "print per-second series as CSV")
	flag.Parse()
	paced := *scenario
	if *pcapIn != "" {
		paced = "" // a capture replay has no generator to pace
	}
	if err := traffic.CheckRates(paced, *link, *duration); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	end := eventsim.FromSeconds(*duration)
	var src traffic.Source
	var capture *traffic.PcapSource
	if *pcapIn != "" {
		m, err := pcap.OpenMapped(*pcapIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer m.Close()
		capture = traffic.NewPcapSource(m)
		src = capture
	} else {
		var err error
		if src, err = traffic.Scenario(*scenario, *link, end, *seed); err != nil {
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
	workload := "scenario=" + *scenario
	if capture != nil {
		if err := capture.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if n := capture.Skipped(); n > 0 {
			fmt.Fprintf(os.Stderr, "skipped %d malformed frames in %s\n", n, *pcapIn)
		}
		workload = "capture=" + *pcapIn
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
	fmt.Printf("\n%s defense=%s link=%.0f bps duration=%.0fs seed=%d\n",
		workload, *defense, *link, *duration, *seed)
	fmt.Printf("benign drops: %.2f%%   attack drops: %.2f%%\n",
		rec.BenignDropPercent(), rec.MaliciousDropPercent())
}

func buildDefense(eng *eventsim.Engine, name string, link float64, rec *netsim.Recorder, clusters int, src traffic.Source) error {
	buffer := max(int(link/8/10), 10_000)
	var port *netsim.Port
	switch name {
	case "fifo":
		port = netsim.NewPort(eng, queue.NewFIFO(buffer), link, rec)
	case "red":
		port = netsim.NewPort(eng, queue.NewRED(buffer, link/8), link, rec)
	case "acc":
		port = netsim.NewPort(eng, queue.NewRED(buffer, link/8), link, rec)
		if _, err := acc.Attach(eng, port, acc.DefaultConfig()); err != nil {
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
