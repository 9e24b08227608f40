//go:build !unix

package main

import "time"

// Without getrusage the CPU and memory metrics read 0.
func cpuTime() time.Duration { return 0 }

func peakRSSMB() float64 { return 0 }
