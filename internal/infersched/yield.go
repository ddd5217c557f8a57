package infersched

import "context"

// SlotYielder lets a submitter release its admission-control slot while it
// waits in a coalesce window and re-acquire it before resuming execution.
// Yield and Unyield may be called concurrently by the partition-parallel
// operator instances of one statement; both are idempotent (Yield on a
// released slot and Unyield on a held slot are no-ops).
type SlotYielder interface {
	Yield()
	// Unyield re-acquires the slot, blocking until one frees up or ctx is
	// done. Scheduler progress never depends on admission slots (batches
	// run on their own goroutines), so this wait cannot deadlock.
	Unyield(ctx context.Context) error
}

type yielderKey struct{}

// WithYielder attaches the statement's admission-slot yielder to ctx.
func WithYielder(ctx context.Context, y SlotYielder) context.Context {
	if y == nil {
		return ctx
	}
	return context.WithValue(ctx, yielderKey{}, y)
}

// YielderFrom returns the yielder carried by ctx (nil if none).
func YielderFrom(ctx context.Context) SlotYielder {
	if ctx == nil {
		return nil
	}
	y, _ := ctx.Value(yielderKey{}).(SlotYielder)
	return y
}
