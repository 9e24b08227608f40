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
	scenario := flag.String("scenario", "pulsewave", "workload: "+traffic.ScenarioNames)
	out := flag.String("out", "trace.pcap", "output pcap path")
	link := flag.Float64("link", 10e6, "reference link rate (bits/s), scales the workload")
	duration := flag.Float64("duration", 30, "simulated seconds (scenarios with fixed length ignore this)")
	seed := flag.Int64("seed", 1, "traffic seed")
	limit := flag.Int("limit", 0, "cap the number of packets (0 = no cap)")
	flag.Parse()
	if err := traffic.CheckRates(*scenario, *link, *duration); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	end := eventsim.FromSeconds(*duration)
	src, err := traffic.Scenario(*scenario, *link, end, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
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
