// Command trafficgen exports the synthetic workloads as pcap files
// (raw-IP linktype), so the generated traces can be inspected with
// tcpdump/Wireshark or replayed elsewhere.
//
// Usage:
//
//	trafficgen -scenario cicddos -out day.pcap -link 10e6 -duration 30
package main

import (
	"flag"
	"fmt"
	"os"

	"accturbo/internal/eventsim"
	"accturbo/internal/pcap"
	"accturbo/internal/traffic"
)

func main() {
	scenario := flag.String("scenario", "pulsewave", "workload: accoriginal|pulsewave|morphing|cicddos|background")
	out := flag.String("out", "trace.pcap", "output pcap path")
	link := flag.Float64("link", 10e6, "reference link rate (bits/s), scales the workload")
	duration := flag.Float64("duration", 30, "simulated seconds (scenarios with fixed length ignore this)")
	seed := flag.Int64("seed", 1, "traffic seed")
	limit := flag.Int("limit", 0, "cap the number of packets (0 = no cap)")
	flag.Parse()
	if err := traffic.CheckRates(*link, *duration); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	end := eventsim.FromSeconds(*duration)
	var src traffic.Source
	switch *scenario {
	case "accoriginal":
		src = traffic.ACCOriginal(*link)
	case "pulsewave":
		src = traffic.PulseWave(*link, 3*(*link), 5*eventsim.Second, false)
	case "morphing":
		src = traffic.PulseWave(*link, 3*(*link), 5*eventsim.Second, true)
	case "cicddos":
		src, _ = traffic.CICDDoSDay(*link*0.6, *link*3, 4*eventsim.Second, 2*eventsim.Second, *seed)
	case "background":
		src = traffic.NewBackground(traffic.BackgroundConfig{
			Rate: *link, Start: 0, End: end, Seed: *seed,
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if *limit > 0 {
		src = traffic.Limit(src, *limit)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	w, err := pcap.NewWriter(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n, bytes := 0, 0
	for {
		tp, ok := src.Next()
		if !ok || tp.At > end {
			break
		}
		if err := w.Write(tp.At, tp.Pkt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n++
		bytes += tp.Pkt.Size()
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d packets (%d bytes of traffic) to %s\n", n, bytes, *out)
}
