// Command accturbo-sim runs one packet-level simulation: a chosen
// workload through a chosen defense over a bottleneck link, printing
// per-second throughput/drop series and a summary. The run is one
// experiments leg (experiments.Simulate), so every packet it offers is
// checked to be delivered, dropped or queued at its end.
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

	"accturbo/internal/eventsim"
	"accturbo/internal/experiments"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
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

	rec, err := experiments.Simulate(*defense, src, *link, end, *clusters)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
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
