// Package ring plants a generic type whose methods are called only
// through an instantiation, the shape of core.Hot[T] and ring.SPSC[T].
package ring

// SPSC is used only as SPSC[int].
type SPSC[T any] struct{ buf []T }

// New builds a ring.
func New[T any]() *SPSC[T] { return &SPSC[T]{} }

// Push is called only through SPSC[int], so the gate must match the
// instantiated method to this one through Origin.
func (r *SPSC[T]) Push(v T) { r.buf = append(r.buf, v) }

// Pending has no caller: planted.
func (r *SPSC[T]) Pending() int { return len(r.buf) }
