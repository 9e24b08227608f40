// Package queue plants an interface-satisfying method, the defaults of
// a config struct and two counters, one of them a test's oracle.
package queue

// Qdisc is what a port drives.
type Qdisc interface {
	Enqueue(size int) bool
	Len() int
}

// Unused has no caller: planted.
func Unused() {}

// FIFO implements Qdisc. Enqueued is only counted and zeroed: planted.
// So is Bytes, but a test reads it.
type FIFO struct {
	n               int
	Enqueued, Bytes uint64
}

// NewFIFO builds an empty FIFO.
func NewFIFO() *FIFO { return &FIFO{} }

// Enqueue implements Qdisc.
func (f *FIFO) Enqueue(size int) bool { f.n++; f.Enqueued++; f.Bytes += uint64(size); return true }

// reset zeroes the counters, which reads neither.
func (f *FIFO) reset() { f.n, f.Enqueued, f.Bytes = 0, 0, 0 }

// Len implements Qdisc; nothing calls it but through the interface.
func (f *FIFO) Len() int { return f.n }
