package queue

import "testing"

// TestBytes is the oracle that keeps FIFO.Bytes.
func TestBytes(t *testing.T) {
	f := NewFIFO()
	f.Enqueue(100)
	if f.Bytes != 100 {
		t.Fatalf("bytes %d", f.Bytes)
	}
}
