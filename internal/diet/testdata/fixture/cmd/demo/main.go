// Command demo is the fixture's only caller.
package main

import (
	"fmt"

	"fixture/internal/core"
	"fixture/internal/queue"
	"fixture/internal/ring"
)

func main() {
	r := ring.New[int]()
	r.Push(1)
	var q queue.Qdisc = queue.NewFIFO()
	q.Enqueue(1)
	cfg := queue.DefaultREDConfig(2000, 1e6)
	cfg.Weight = 0.002
	cfg.MaxP = 0.2
	fmt.Println(q.Len(), queue.NewRED(cfg), core.Replay(core.DefaultRuntimeConfig()))
}
