package packet

// Pool is a free-list recycler for Packets, so steady-state simulation
// re-stamps a bounded working set of packets instead of allocating one
// per simulated packet and GC-ing it after delivery.
//
// Ownership protocol (enforced by the simulator wiring, documented in
// DESIGN.md): a packet is born at a generator via Get, owned by
// whichever component holds it (queue, in-flight transmission), and
// released back via Put exactly once at its terminal event — delivery
// at a sink port or any drop (policer, early, tail, push-out). A
// template or retained packet must never be Put. Put panics on double
// release instead of silently corrupting the free list.
//
// A Pool is single-goroutine, like the event engine whose simulations
// it serves; concurrent pipelines use one pool per ingest goroutine
// (or per shard) rather than a shared locked pool.
type Pool struct {
	free []*Packet
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a packet for stamping: recycled when the free list has
// one, freshly allocated otherwise. The caller must overwrite every
// field (generators assign a full Packet literal), so Get does not
// clear the packet.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.pooled = false
		return p
	}
	return &Packet{}
}

// Put releases a packet back to the pool. Releasing the same packet
// twice without an intervening Get panics: a double release means two
// components think they own the packet, and recycling it twice would
// alias two "different" packets in flight.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		panic("packet: Put(nil)")
	}
	if p.pooled {
		panic("packet: double release — Put on a packet already in the pool")
	}
	p.pooled = true
	pl.free = append(pl.free, p)
}
