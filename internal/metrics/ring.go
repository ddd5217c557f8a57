package metrics

import "sync/atomic"

// Ring is a fixed-size lock-free history of immutable records, the backing
// of the flight recorder's summaries, the inference batch log and the
// telemetry history. Push claims a slot with one atomic add and stores a
// pointer, so concurrent writers never wait on each other or on readers,
// and a reader sees whole records only. Once every slot is used, each Push
// overwrites the oldest record. The zero value is not usable; use NewRing.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64 // records ever pushed; the next slot is next % len
}

// NewRing returns an empty ring of n slots.
func NewRing[T any](n int) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[T], n)}
}

// Push publishes v; it must not be mutated afterwards.
func (r *Ring[T]) Push(v *T) {
	n := r.next.Add(1)
	r.slots[(n-1)%uint64(len(r.slots))].Store(v)
}

// Cap returns the number of slots.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Pushed returns the number of records ever pushed.
func (r *Ring[T]) Pushed() uint64 { return r.next.Load() }

// Snapshot returns the retained records in slot order, not push order: a
// concurrent Push can overwrite a slot mid-scan, so callers order the
// result by a field of their records.
func (r *Ring[T]) Snapshot() []*T {
	out := make([]*T, 0, len(r.slots))
	for i := range r.slots {
		if v := r.slots[i].Load(); v != nil {
			out = append(out, v)
		}
	}
	return out
}
