// Package queue plants an interface-satisfying method and the defaults
// of a config struct.
package queue

// Qdisc is what a port drives.
type Qdisc interface {
	Enqueue(size int) bool
	Len() int
}

// Unused has no caller: planted.
func Unused() {}

// FIFO implements Qdisc.
type FIFO struct{ n int }

// NewFIFO builds an empty FIFO.
func NewFIFO() *FIFO { return &FIFO{} }

// Enqueue implements Qdisc.
func (f *FIFO) Enqueue(size int) bool { f.n++; return true }

// Len implements Qdisc; nothing calls it but through the interface.
func (f *FIFO) Len() int { return f.n }
